// Package lint is the repo's static-invariant suite (DESIGN.md §13): five
// go/analysis-style analyzers that enforce at compile time the invariants
// the runtime goldens, fuzzers and AllocsPerRun pins only catch after the
// fact — deterministic iteration (detmap), no ambient nondeterminism
// (nondet), paired phase spans (spanpair), errors.Is-reachable sentinels
// (wrapcheck) and allocation-free hot paths (zeroalloc).
//
// The framework mirrors the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Diagnostic, testdata fixtures with `// want` comments) but is built
// on the standard library only — go/ast and go/types driven by a source
// importer — because the build environment pins the Go toolchain without
// x/tools. A future migration to the real multichecker is mechanical: each
// Run func already receives exactly the pass state analysis.Pass carries.
//
// # Suppressions
//
// A diagnostic is silenced by a `//hetlint:<key> <justification>` comment on
// the flagged line or the line directly above it, where <key> is the
// analyzer's suppression key (sorted, nondet, span, wrap, alloc). The
// justification text is mandatory: a bare `//hetlint:<key>` does not
// suppress — CI fails on any unjustified diagnostic by construction. The
// `//hetlint:zeroalloc` function marker is not a suppression; it opts a
// function's body in to the zeroalloc analyzer (see zeroalloc.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check. EngineOnly analyzers run only on the
// deterministic-engine packages (EnginePaths); the others run repo-wide.
type Analyzer struct {
	Name       string // diagnostic prefix and CI identity
	Doc        string // one-line description (hetlint -list)
	Key        string // //hetlint:<Key> suppression-comment key
	EngineOnly bool
	Run        func(pass *Pass)
}

// enginePaths is the deterministic-engine package set of DESIGN.md §13: the
// packages whose Stats/trace output must be bit-identical across
// GOMAXPROCS, transports and runs — the engine and the algorithms that drive
// it.
var enginePaths = map[string]bool{
	"hetmpc/internal/mpc":       true,
	"hetmpc/internal/prims":     true,
	"hetmpc/internal/sched":     true,
	"hetmpc/internal/trace":     true,
	"hetmpc/internal/metrics":   true,
	"hetmpc/internal/wire":      true,
	"hetmpc/internal/core":      true,
	"hetmpc/internal/sublinear": true,
	"hetmpc/internal/labeling":  true,
	"hetmpc/internal/unionfind": true,
}

// IsEnginePath reports whether the import path belongs to the deterministic
// engine (the scope of the EngineOnly analyzers).
func IsEnginePath(path string) bool { return enginePaths[path] }

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Engine   bool // package is in the deterministic-engine set
	diags    *[]Diagnostic
}

// Fset returns the pass's position table.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypeOf returns the static type of e (nil when untyped).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Reportf files a diagnostic at pos unless a justified
// //hetlint:<key> suppression covers the line (or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	switch p.Pkg.suppressionAt(position, p.Analyzer.Key) {
	case suppressJustified:
		return
	case suppressBare:
		format += fmt.Sprintf(" [a //hetlint:%s comment is present but carries no justification; add one]", p.Analyzer.Key)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the hetlint suite in the order DESIGN.md §13 catalogues it.
func All() []*Analyzer {
	return []*Analyzer{DetMap, NonDet, SpanPair, WrapCheck, ZeroAlloc}
}

// RunPackage applies analyzers to pkg (engine gates the EngineOnly ones) and
// returns the diagnostics sorted by position.
func RunPackage(pkg *Package, engine bool, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.EngineOnly && !engine {
			continue
		}
		a.Run(&Pass{Analyzer: a, Pkg: pkg, Engine: engine, diags: &diags})
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diags by file, line, column, analyzer — the stable
// output order of cmd/hetlint.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppression states of a line for a key.
type suppressState int

const (
	suppressNone      suppressState = iota
	suppressBare                    // //hetlint:key with no justification text
	suppressJustified               // //hetlint:key <why>
)

// hetlintComment parses a //hetlint:<key> comment, returning the key and the
// justification text ("" when bare). ok is false for non-hetlint comments.
func hetlintComment(text string) (key, justification string, ok bool) {
	const prefix = "//hetlint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	key, justification, _ = strings.Cut(rest, " ")
	justification = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(justification), "—"))
	if key == "" {
		return "", "", false
	}
	return key, justification, true
}

// buildSuppressions indexes every //hetlint: comment of the package by file
// and line.
func (pkg *Package) buildSuppressions() {
	pkg.suppress = map[string]map[int]map[string]suppressState{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				key, just, ok := hetlintComment(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := pkg.suppress[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]suppressState{}
					pkg.suppress[pos.Filename] = lines
				}
				keys := lines[pos.Line]
				if keys == nil {
					keys = map[string]suppressState{}
					lines[pos.Line] = keys
				}
				st := suppressBare
				if just != "" {
					st = suppressJustified
				}
				if keys[key] < st {
					keys[key] = st
				}
			}
		}
	}
}

// suppressionAt reports the suppression state of key at pos: the comment may
// sit on the flagged line or the line directly above it.
func (pkg *Package) suppressionAt(pos token.Position, key string) suppressState {
	lines := pkg.suppress[pos.Filename]
	if lines == nil {
		return suppressNone
	}
	st := lines[pos.Line][key]
	if s := lines[pos.Line-1][key]; s > st {
		st = s
	}
	return st
}
