package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"hetmpc"
)

// testDiv is the size divisor the tests run the workloads at.
const testDiv = 8

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric tables:
// every metric it names is one a run emits, and the other way round.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with\n\tgo -C perf run . -benchmark-json > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestFacadeOnly keeps the benchmark on the root façade, so that the
// engine's internals can change without editing it.
func TestFacadeOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "hetmpc/") || (strings.Contains(path, ".") && path != "hetmpc") {
				t.Errorf("%s imports %q; only hetmpc and the standard library are allowed", f, path)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload end to end and traced at
// 1/8 size. The end-to-end run must emit every end-to-end metric, none of
// them 0; the traced run every per-layer metric of the workload, with the
// ledger covering the traced wall; and the two runs — separate clusters,
// same seed — must agree on the model clock.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	proto := protocol{div: testDiv, minPasses: 1, tracePasses: 1}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			e2e, r, err := endToEndRun(name, 7, 0.01, proto)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d cells failed", r.failed, r.attempted)
			}
			for _, m := range endToEnd {
				v, ok := e2e[m.name]
				if !ok {
					t.Errorf("end-to-end metric %s not emitted", m.name)
				} else if (v == 0) != (m.name == failShare) || math.IsNaN(v) {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			for k := range e2e {
				if !tableHas(endToEnd, k) {
					t.Errorf("emitted %s is not in the end-to-end table", k)
				}
			}

			traced, r, err := tracedRun(name, 7, proto, "", "")
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("traced: %d of %d cells failed", r.failed, r.attempted)
			}
			for _, m := range perLayer {
				if _, ok := traced[m.name]; !ok && (m.on == "" || m.on == name) && !strings.HasPrefix(m.name, "cpu.") {
					t.Errorf("per-layer metric %s not emitted", m.name)
				}
			}
			for k := range traced {
				if !tableHas(perLayer, k) {
					t.Errorf("emitted %s is not in the per-layer table", k)
				}
			}
			if cov := traced["ledger.coverage"]; math.Abs(cov-1) > 0.05 {
				t.Errorf("ledger.coverage = %v, want 1 ± 0.05", cov)
			}
			var ledgerRounds float64
			for _, layer := range ledgerLayers() {
				ledgerRounds += traced[layer+".rounds"]
			}
			if ledgerRounds != e2e["model_rounds"] {
				t.Errorf("ledger counts %v exchange rounds, the end-to-end run %v", ledgerRounds, e2e["model_rounds"])
			}
			if name == "hetero" {
				again, _, err := tracedRun(name, 7, proto, "", "")
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range traced {
					if (strings.HasSuffix(k, ".rounds") || strings.HasPrefix(k, "fault.") && !strings.HasSuffix(k, "_ratio")) && again[k] != v {
						t.Errorf("%s = %v, then %v", k, v, again[k])
					}
				}
				if traced["fault.crashes"] == 0 || traced["fault.checkpoints"] == 0 {
					t.Errorf("no faults injected: crashes %v, checkpoints %v", traced["fault.crashes"], traced["fault.checkpoints"])
				}
			}
		})
	}
}

func testRunner(t *testing.T) *runner {
	t.Helper()
	r, err := newRunner(7, reference)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tableHas(table []metric, name string) bool {
	for _, m := range table {
		if m.name == name {
			return true
		}
	}
	return false
}

// TestCorruptedOutputCountsAsFailure swaps one MST edge for a heavier
// non-tree edge: the validation must reject it and the runner count it.
func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	g := hetmpc.ConnectedGNM(64, 512, 7, true)
	ref := newMSTRef(g)
	corrupt := func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.MST(c, g)
		if err != nil {
			return nil, err
		}
		if err := ref.check(res.Edges, res.Weight); err != nil {
			t.Fatalf("the uncorrupted output must validate: %v", err)
		}
		inTree := map[hetmpc.Edge]bool{}
		for _, e := range res.Edges {
			inTree[e] = true
		}
		edges := append([]hetmpc.Edge(nil), res.Edges...)
		for _, e := range g.Edges {
			if !inTree[e] {
				edges[0] = e
				break
			}
		}
		return func() error { return ref.check(edges, res.Weight) }, nil
	}
	r := testRunner(t)
	r.exec(&cell{name: "corrupt", cfg: plain(g, 0, 7), run: corrupt})
	r.exec(&cell{name: "sound", cfg: plain(g, 0, 7), run: runMST(ref)})
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", r.attempted, r.failed)
	}
}

// TestStatsDriftCountsAsFailure: a cell whose model stats differ from its
// first execution is a failure even when its output validates.
func TestStatsDriftCountsAsFailure(t *testing.T) {
	g1 := hetmpc.ConnectedGNM(64, 512, 7, true)
	g2 := hetmpc.ConnectedGNM(64, 512, 8, true)
	r := testRunner(t)
	r.exec(&cell{name: "mst", cfg: plain(g1, 0, 7), run: runMST(newMSTRef(g1))})
	r.exec(&cell{name: "mst", cfg: plain(g2, 0, 7), run: runMST(newMSTRef(g2))})
	if r.failed != 1 {
		t.Errorf("failed %d, want 1", r.failed)
	}
}

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileRoundTrip decodes a profile written by runtime/pprof.
func TestProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleTypes) != 2 || p.sampleTypes[1] != "cpu" {
		t.Errorf("sample types %v, want [samples cpu]", p.sampleTypes)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Errorf("no sample of %d has spin on its stack", len(p.samples))
	}
	shares := cpuShares(p)
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v", total)
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestCPUBucket(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string
	}{
		{"prims", []string{"slices.symMergeCmpFunc[go.shape.struct { hetmpc/internal/prims.key int }]", "hetmpc/internal/prims.Sort[go.shape.int]", "hetmpc/internal/core.MST"}},
		{"mpc", []string{"runtime.memmove", "hetmpc/internal/mpc.(*Cluster).Exchange", "hetmpc/internal/prims.Sort[go.shape.int]"}},
		{cpuRuntimeAlloc, []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "hetmpc/internal/prims.posChildren"}},
		{cpuRuntimeGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{cpuRuntimeGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc1", "runtime.mallocgc", "hetmpc/internal/prims.Sort[go.shape.int]"}},
		{cpuRuntimeSched, []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{cpuSyscall, []string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "hetmpc/internal/wire.(*link).flush"}},
		{"wire", []string{"encoding/binary.littleEndian.PutUint64", "hetmpc/internal/wire.AppendFrame"}},
		{cpuOtherRepo, []string{"hetmpc/internal/arena.(*Arena[go.shape.int]).Alloc", "hetmpc/internal/prims.Sort[go.shape.int]"}},
		{cpuOther, []string{"main.(*ledger).Record", "hetmpc/internal/trace.(*Collector).Add"}},
		{cpuOther, nil},
	} {
		if got := cpuBucket(tc.stack); got != tc.want {
			t.Errorf("cpuBucket(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestLedgerAttribution(t *testing.T) {
	l := newLedger()
	l.beginPass("traced")
	l.beginCell("cell")
	l.clusterReady()
	l.Record(hetmpc.TraceRound{Kind: hetmpc.TraceKindExchange, Phase: "mst/contract/aggregate"})
	l.Record(hetmpc.TraceRound{Kind: hetmpc.TraceKindExchange, Phase: "mst/contract"})
	l.Record(hetmpc.TraceRound{Kind: hetmpc.TraceKindCheckpoint, Phase: "mst/sort"})
	l.Record(hetmpc.TraceRound{Kind: hetmpc.TraceKindExchange})
	l.endCell()
	l.endPass()
	l.Record(hetmpc.TraceRound{Kind: hetmpc.TraceKindExchange, Phase: "stray"}) // no open cell: dropped
	s := l.summarize()
	if s.rounds["prims.aggregate"] != 1 || s.rounds[ownLayer] != 2 || s.rounds["prims.sort"] != 0 {
		t.Errorf("rounds %v", s.rounds)
	}
	if _, ok := s.host["prims.sort"]; !ok {
		t.Errorf("the checkpoint's host time is not charged to its phase: %v", s.host)
	}
	cellSpan := l.spans[1]
	var attributed float64
	for _, h := range s.host {
		attributed += h
	}
	if got, want := attributed+s.self, cellSpan.End-cellSpan.Start; math.Abs(got-want) > 1e-9 {
		t.Errorf("attributed + self = %v, the cell lasted %v", got, want)
	}
	if len(l.spans) != 6 || l.spans[2].Parent != cellSpan.ID || cellSpan.Parent != l.spans[0].ID {
		t.Errorf("span tree: %+v", l.spans)
	}
}
