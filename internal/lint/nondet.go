package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonDet forbids ambient nondeterminism in the deterministic-engine
// packages and in the sketch layer and the experiment harness beside them
// (packageStatePaths) — everything whose output is a pure function of
// input, seed and Config/Env: wall-clock time (time.Now/Since/Until — model time is the only
// clock), the global math/rand source (internal/xrand seeds every stream),
// environment lookups (engine behavior is a function of Config, never of
// the process environment), and scheduler-shape probes
// (runtime.NumCPU/GOMAXPROCS — results must be bit-identical across
// GOMAXPROCS, so any dependence is at best a justified worker-pool sizing).
// Observability wall-clocks that provably never feed Stats or the trace are
// the intended //hetlint:nondet escape.
//
// It also forbids the ambient input the process makes for itself: a write to
// a package-level variable outside init. A package variable some function
// sets is a switch every cluster and every run in the process shares — two
// configurations cannot coexist and parallel tests interfere — so
// configuration travels as a value (mpc.Config, exp.Env). Registration
// tables built by their initializer or by init, sync.Pool method calls and
// error sentinels are not writes.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc:  "forbid wall-clock, global rand, env and CPU-count dependence and writes to package-level variables in engine packages and in sketch/exp",
	Key:  "nondet",
	Run:  runNonDet,
}

// packageStatePaths are the packages beyond the engine set that nondet
// covers.
var packageStatePaths = map[string]bool{
	"hetmpc/internal/sketch": true,
	"hetmpc/internal/exp":    true,
}

// nondetFuncs maps package path -> function name -> remedy. Only
// package-level functions are matched (rand.New(...).Intn is a seeded
// stream, not the global source).
var nondetFuncs = map[string]map[string]string{
	"time": {
		"Now":   "model time is the only engine clock; wall-clock may only feed observability (justify with //hetlint:nondet)",
		"Since": "model time is the only engine clock; wall-clock may only feed observability (justify with //hetlint:nondet)",
		"Until": "model time is the only engine clock; wall-clock may only feed observability (justify with //hetlint:nondet)",
	},
	"os": {
		"Getenv":    "engine behavior must be a function of Config, not the environment",
		"LookupEnv": "engine behavior must be a function of Config, not the environment",
		"Environ":   "engine behavior must be a function of Config, not the environment",
	},
	"runtime": {
		"NumCPU":     "results must be bit-identical across CPU counts; derive sizes from Config",
		"GOMAXPROCS": "results must be bit-identical across GOMAXPROCS; justify pure worker-pool sizing with //hetlint:nondet",
	},
}

func runNonDet(pass *Pass) {
	if !pass.Engine && !packageStatePaths[pass.Pkg.Path] {
		return
	}
	checkPackageWrites(pass)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true
			}
			path, name := fn.Pkg().Path(), fn.Name()
			if path == "math/rand" || path == "math/rand/v2" {
				if !strings.HasPrefix(name, "New") {
					pass.Reportf(sel.Pos(), "global %s.%s draws from the shared process-wide source; use a seeded internal/xrand stream", pathBase(path), name)
				}
				return true
			}
			if remedy, ok := nondetFuncs[path][name]; ok {
				pass.Reportf(sel.Pos(), "%s.%s is nondeterministic: %s", path, name, remedy)
			}
			return true
		})
	}
}

// checkPackageWrites reports every assignment, op-assignment, ++/-- and
// range-assignment whose target is (an element, field or pointee of) a
// package-level variable, in any function other than init.
func checkPackageWrites(pass *Pass) {
	report := func(lhs ast.Expr) {
		if v := packageVarOf(pass, lhs); v != nil {
			pass.Reportf(lhs.Pos(), "write to package-level variable %s outside init: package state is ambient input shared by every cluster and run in the process; pass it as a value (Config, Env) instead", v.Name())
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok != token.DEFINE {
						for _, lhs := range st.Lhs {
							report(lhs)
						}
					}
				case *ast.IncDecStmt:
					report(st.X)
				case *ast.RangeStmt:
					if st.Tok == token.ASSIGN {
						for _, lhs := range []ast.Expr{st.Key, st.Value} {
							if lhs != nil {
								report(lhs)
							}
						}
					}
				}
				return true
			})
		}
	}
}

// packageVarOf returns the package-level variable an assignment target
// writes into, or nil: the target is peeled of index, field, dereference
// and paren layers down to its root name (pkg.Var counts as a root).
func packageVarOf(pass *Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.Ident:
			v, ok := pass.ObjectOf(x).(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
