package exp

import (
	"encoding/json"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// TestSetTraceArtifact: under Env.Trace (hetbench -trace) an ordinary
// experiment's artifact gains the phase summary, the
// summary conserves the model totals exactly (every cluster of the run is
// traced), the artifact keeps its baseline name (tracing is observational,
// not an override), and the field marshals under the stable "trace" key.
// E14 is the cheapest experiment that moves real traffic.
func TestSetTraceArtifact(t *testing.T) {
	art, _, err := Env{Trace: true}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Trace == nil {
		t.Fatal("artifact has no trace field under Env.Trace")
	}
	if art.Trace.Clusters != art.Model.Clusters {
		t.Fatalf("traced %d of %d clusters", art.Trace.Clusters, art.Model.Clusters)
	}
	if len(art.Trace.Phases) == 0 {
		t.Fatal("empty phase breakdown")
	}
	if art.Trace.Words != art.Model.TotalWords {
		t.Fatalf("trace words %d != model %d", art.Trace.Words, art.Model.TotalWords)
	}
	if art.Trace.Makespan != art.Model.Makespan {
		t.Fatalf("trace makespan %v != model %v (must be bit-identical: same sums, same order)",
			art.Trace.Makespan, art.Model.Makespan)
	}
	if art.Trace.Rounds != art.Model.Rounds {
		t.Fatalf("trace rounds %d != model %d", art.Trace.Rounds, art.Model.Rounds)
	}
	// The phase rows partition the totals (tolerance-free for words).
	var words int64
	for _, p := range art.Trace.Phases {
		words += p.Words
	}
	if words != art.Trace.Words {
		t.Fatalf("phase words sum %d != trace total %d", words, art.Trace.Words)
	}
	// Profile/Faults/Placement naming is untouched by tracing.
	if art.Profile != "" || art.Faults != "" || art.Placement != "" {
		t.Fatalf("tracing tagged the artifact: %+v", art)
	}
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	tr, ok := m["trace"].(map[string]any)
	if !ok {
		t.Fatalf("marshaled artifact lacks the trace object: %s", raw)
	}
	for _, key := range []string{"clusters", "rounds", "total_words", "makespan", "phases"} {
		if _, ok := tr[key]; !ok {
			t.Fatalf("trace object lacks %q: %s", key, raw)
		}
	}
}

// TestSetTraceArtifactNonDyadicCosts: the cross-cluster bit-identity must
// survive per-word costs that are not exactly representable in binary
// (slowdown 1.7). Regression for a real drift: summing the concatenated
// records as one running total regroups the float additions across
// cluster boundaries and lands ulps away from the model's
// per-cluster-subtotal sum; the artifact must group the same way the
// model does.
func TestSetTraceArtifactNonDyadicCosts(t *testing.T) {
	art, _, err := Env{Profile: "straggler:2:1.7", Trace: true}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Trace == nil || art.Trace.Clusters < 2 {
		t.Fatalf("want a traced multi-cluster run, got %+v", art.Trace)
	}
	if art.Trace.Makespan != art.Model.Makespan {
		t.Fatalf("trace makespan %.17g != model %.17g under non-dyadic costs",
			art.Trace.Makespan, art.Model.Makespan)
	}
}

// TestUntracedArtifactOmitsTrace: without the toggle (and for experiments
// that do not trace themselves) the wire format is unchanged — no "trace"
// key at all, so downstream consumers of the committed baselines see the
// exact pre-refactor schema.
func TestUntracedArtifactOmitsTrace(t *testing.T) {
	art, _, err := Env{}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Trace != nil {
		t.Fatal("untraced run produced a trace summary")
	}
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["trace"]; ok {
		t.Fatalf("untraced artifact carries a trace key: %s", raw)
	}
}

// TestE24CapSampleScatterOffTheStraggler pins where MST's KKT labels land in
// E34's mst/straggler:4:16 cap cell (n=512, m=4096, seed 7). PlanBroadcast
// sends a large value to its key's root whether or not anyone requests the
// key, and the root of a key past every request is the last bucket, a
// straggler here. Shipping every vertex's label, when only F's vertices can
// matter, piled most of them onto it: the scatter round cost 50,083. It
// (absent when F is empty) must cost no more than the 715 it did when the
// labels were hashed over the machines.
func TestE24CapSampleScatterOffTheStraggler(t *testing.T) {
	const n, m, seed = 512, 4096, 7
	const phase, limit = "mst/sample/broadcast", 715.0
	rn := &run{}
	defer rn.close()
	g := graph.ConnectedGNM(n, m, seed, true)
	cfg := profiled(g, 0, seed, "straggler:4:16", true)
	cfg.Placement, cfg.Trace = sched.Cap{}, trace.New()
	c, _, err := cell(rn, cfg, mst(g))
	if err != nil {
		t.Fatal(err)
	}
	makespan := map[string]float64{}
	for _, p := range trace.Summarize(c.Trace().Rounds()).Phases {
		makespan[p.Phase] = p.Makespan
	}
	if _, ok := makespan[phase]; !ok {
		t.Fatalf("the cap cell has no %s phase: %v", phase, makespan)
	}
	if got := makespan[phase+"/scatter"]; got > limit {
		t.Errorf("%s/scatter costs %v, above %v: the labels pile onto one machine", phase, got, limit)
	}
}

// TestTraceStatsTable: hetbench -trace renders one row per phase, in the
// summary's order, its cells the phase's numbers, and a record that carried
// no phase label as "(untagged)".
func TestTraceStatsTable(t *testing.T) {
	ts := &TraceStats{Phases: []trace.PhaseStat{
		{Phase: "sort/broadcast", Rounds: 3, Words: 1200, Makespan: 640, Share: 0.5, Top: 2, TopShare: 0.25},
		{Phase: "", Rounds: 1, Words: 0, Makespan: 10, Share: 0.125, Top: trace.None},
		{Phase: "connectivity/sketch/gather", Rounds: 2, Words: 96, Makespan: 128, Share: 0.375, Top: trace.Large, TopShare: 1},
	}}
	tab := ts.Table("phases")
	if tab.Title != "phases" || len(tab.Header) != 7 {
		t.Fatalf("title %q, header %v", tab.Title, tab.Header)
	}
	want := [][]string{
		{"sort/broadcast", "3", "1200", "640", "0.5", "small-2", "0.25"},
		{"(untagged)", "1", "0", "10", "0.125", "-", "0"},
		{"connectivity/sketch/gather", "2", "96", "128", "0.375", "large", "1"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("%d rows for %d phases", len(tab.Rows), len(want))
	}
	for i, row := range tab.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("row %d: %q, want %q", i, row, want[i])
		}
	}
}
