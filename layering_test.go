package hetmpc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestFiles parses every non-test .go file under the given directories
// (testdata skipped) and hands each to visit.
func nonTestFiles(t *testing.T, dirs []string, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			visit(fset, filepath.ToSlash(path), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalStepsThatCannotFailUseEach holds the local-step contract (DESIGN.md
// §5) in the algorithm layers: a ForSmall body whose every return is
// `return nil` cannot fail, so it has no error for the caller to check and
// belongs on Each.
func TestLocalStepsThatCannotFailUseEach(t *testing.T) {
	dirs := []string{"internal/prims", "internal/core", "internal/sublinear"}
	nonTestFiles(t, dirs, func(fset *token.FileSet, path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			body, isLit := call.Args[0].(*ast.FuncLit)
			if !ok || !isLit || sel.Sel.Name != "ForSmall" {
				return true
			}
			canFail := false
			ast.Inspect(body.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // a nested closure's returns are its own
				case *ast.ReturnStmt:
					if len(n.Results) != 1 {
						canFail = true
					} else if id, ok := n.Results[0].(*ast.Ident); !ok || id.Name != "nil" {
						canFail = true
					}
				}
				return true
			})
			if !canFail {
				t.Errorf("%s: ForSmall body only ever returns nil; use Each", fset.Position(call.Pos()))
			}
			return true
		})
	})
}

// TestMessagesAreBuiltInEngineAndPrimsOnly: every round the algorithms run
// goes through a prims collective, so no non-test file outside internal/mpc
// and internal/prims constructs a Msg or type-asserts a received payload.
func TestMessagesAreBuiltInEngineAndPrimsOnly(t *testing.T) {
	nonTestFiles(t, []string{"."}, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/mpc/") || strings.HasPrefix(path, "internal/prims/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := n.Type
				if arr, ok := typ.(*ast.ArrayType); ok { // []mpc.Msg{{…}} elides the element type
					typ = arr.Elt
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					typ = sel.Sel
				}
				if id, ok := typ.(*ast.Ident); ok && id.Name == "Msg" {
					t.Errorf("%s: Msg literal outside internal/mpc and internal/prims; use a prims collective", fset.Position(n.Pos()))
				}
			case *ast.TypeAssertExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
					t.Errorf("%s: payload assertion outside internal/mpc and internal/prims; use a prims collective", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}

// TestExperimentClustersAreBuiltByRunBuild: every cluster an experiment
// builds goes through run.build, which applies the Env overrides, records
// the cluster for the artifact's model stats and closes it after the run. So
// in internal/exp no other function may reach mpc.New.
func TestExperimentClustersAreBuiltByRunBuild(t *testing.T) {
	nonTestFiles(t, []string{"internal/exp"}, func(fset *token.FileSet, path string, f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "build" && fd.Recv != nil && len(fd.Recv.List) == 1 {
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "run" {
						continue
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mpc" {
						t.Errorf("%s: mpc.New outside run.build; build experiment clusters through a cell", fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	})
}
