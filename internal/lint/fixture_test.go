package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader builds one shared Loader per test binary: the source importer
// re-type-checks stdlib packages from GOROOT, so sharing its cache across
// fixtures is what keeps the suite fast.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	sharedErr    error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			sharedErr = err
			return
		}
		sharedLoader, sharedErr = NewLoader(root)
	})
	if sharedErr != nil {
		t.Fatalf("loader: %v", sharedErr)
	}
	return sharedLoader
}

// wantRe matches the analysistest convention: a trailing
//
//	// want `regex`
//
// comment on the line a diagnostic is expected at.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantEntry struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<name>, runs the single analyzer over it
// (with the given engine classification), and checks the diagnostics against
// the fixture's `// want` comments: every diagnostic must match a want on
// its line, and every want must be hit.
func runFixture(t *testing.T, a *Analyzer, name string, engine bool) {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags := RunPackage(pkg, engine, []*Analyzer{a})

	var wants []*wantEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &wantEntry{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", name)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

func TestDetMapFixture(t *testing.T)    { runFixture(t, DetMap, "detmap", true) }
func TestNonDetFixture(t *testing.T)    { runFixture(t, NonDet, "nondet", true) }
func TestSpanPairFixture(t *testing.T)  { runFixture(t, SpanPair, "spanpair", false) }
func TestWrapCheckFixture(t *testing.T) { runFixture(t, WrapCheck, "wrapcheck", true) }
func TestZeroAllocFixture(t *testing.T) { runFixture(t, ZeroAlloc, "zeroalloc", false) }

// TestEngineGating: an EngineOnly analyzer must stay silent outside the
// engine package set.
func TestEngineGating(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "detmap"), "fixture/detmap-offengine")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunPackage(pkg, false, []*Analyzer{DetMap}); len(diags) != 0 {
		t.Errorf("EngineOnly analyzer ran outside the engine set: %v", diags)
	}
}

// TestPackageStateScope: both of nondet's rules — the call bans and the
// package-level-write rule — reach the packageStatePaths packages, and the
// analyzer stays silent everywhere else outside the engine set.
func TestPackageStateScope(t *testing.T) {
	// A private loader: the fixture is loaded under a real package's import
	// path, which must not land in the shared loader's cache.
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "nondet")
	pkg, err := l.LoadDir(dir, "hetmpc/internal/exp")
	if err != nil {
		t.Fatal(err)
	}
	var writes, calls bool
	for _, d := range RunPackage(pkg, false, []*Analyzer{NonDet}) {
		writes = writes || strings.Contains(d.Message, "package-level variable")
		calls = calls || strings.Contains(d.Message, "time.Now is nondeterministic")
	}
	if !writes || !calls {
		t.Fatalf("in a packageStatePaths package: package-level writes reported %v, time.Now reported %v", writes, calls)
	}
	pkg, err = l.LoadDir(dir, "fixture/nondet-offscope")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunPackage(pkg, false, []*Analyzer{NonDet}); len(diags) != 0 {
		t.Errorf("nondet ran outside its scope: %v", diags)
	}
}
