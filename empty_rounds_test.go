package hetmpc_test

import (
	"slices"
	"strings"
	"testing"

	"hetmpc"
)

// table1Summary runs the twelve Table-1 calls — six problems, sublinear
// baseline and heterogeneous, n=512 m=4096 seed 7 — each on its own traced
// cluster and returns the summary of the twelve timelines concatenated.
func table1Summary(t *testing.T) *hetmpc.TraceSummary {
	t.Helper()
	gU := hetmpc.ConnectedGNM(512, 4096, 7, false)
	gW := hetmpc.ConnectedGNM(512, 4096, 7, true)
	const spannerK = 3
	calls := []struct {
		name    string
		noLarge bool
		run     func(c *hetmpc.Cluster) error
	}{
		{"sublinear.cc", true, func(c *hetmpc.Cluster) error { _, err := hetmpc.BaselineConnectivity(c, gU); return err }},
		{"core.cc", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.Connectivity(c, gU); return err }},
		{"sublinear.mst", true, func(c *hetmpc.Cluster) error { _, err := hetmpc.BaselineMST(c, gW); return err }},
		{"core.mst", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.MST(c, gW); return err }},
		{"sublinear.spanner", true, func(c *hetmpc.Cluster) error { _, err := hetmpc.BaselineSpanner(c, gU, spannerK); return err }},
		{"core.spanner", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.Spanner(c, gU, spannerK); return err }},
		{"sublinear.coloring", true, func(c *hetmpc.Cluster) error { _, err := hetmpc.BaselineColoring(c, gU); return err }},
		{"core.coloring", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.Coloring(c, gU); return err }},
		{"sublinear.mis", true, func(c *hetmpc.Cluster) error { _, err := hetmpc.BaselineMIS(c, gU); return err }},
		{"core.mis", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.MIS(c, gU); return err }},
		{"sublinear.matching", true, func(c *hetmpc.Cluster) error { _, _, err := hetmpc.BaselineMatching(c, gU); return err }},
		{"core.matching", false, func(c *hetmpc.Cluster) error { _, err := hetmpc.MaximalMatching(c, gU); return err }},
	}
	var rounds []hetmpc.TraceRound
	for _, call := range calls {
		tr := hetmpc.NewTrace()
		c, err := hetmpc.NewCluster(hetmpc.Config{N: gU.N, M: gU.M(), Seed: 7, NoLarge: call.noLarge, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := call.run(c); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		rounds = append(rounds, tr.Rounds()...)
	}
	return hetmpc.SummarizeTrace(rounds)
}

// TestTable1EmptyRounds pins the model clock's silent barriers (DESIGN.md
// §6): over the twelve Table-1 calls a round that moves no words is charged
// only where the list below says so, by phase path. Every entry is
// data-dependent: the round is a fixed step of a protocol that had nothing
// to send on this input, not a mechanism that can never send. AggregateByKey
// had three of the latter per call (its boundary-report, instruction and
// tree-combine rounds); no phase ending in "aggregate" may charge an empty
// round again — AggregateByKey charges none of its own, and PlanCombine's one
// there is the route round that carries every partial — and a new empty
// round anywhere fails by its path.
func TestTable1EmptyRounds(t *testing.T) {
	// 21 of the 791 rounds. The protocols below run a fixed number of
	// rounds so that the round count depends on public parameters only; each
	// listed round had nothing to carry on this input.
	allowed := map[string]int{
		// Sort's route round over no items: the last Borůvka/cluster phases
		// aggregate an already empty edge set, and the spanner disseminates
		// cluster tables to no sampled level (the sample round and the reply
		// round still carry one header word a machine: an empty run has no
		// cuts).
		"baseline-cc/aggregate/sort": 2,
		"spanner/aggregate/sort":     1,
		"spanner/broadcast/sort":     1,
		// The tree-down and answer rounds of a dissemination where no
		// splitter names a span whose key has a value, or no requested key
		// has a value to send down and answer with.
		"baseline-cc/broadcast":  4,
		"baseline-mst/broadcast": 2,
		"baseline-mis/broadcast": 1,
		"spanner/broadcast":      2,
		// PlanCombine's span-up round when no span member holds a partial of
		// its span key: Luby's last domination aggregate. (A plan with no
		// span at all charges no span-up round.)
		"baseline-mis/aggregate/span-up": 1,
		// GatherToLarge with nothing left to gather (an empty residual or
		// sample).
		"matching/gather":   1,
		"mis/gather":        1,
		"mst/sample/gather": 1,
		"spanner/gather":    2,
		// CollectBudget's query and reply rounds when no vertex is above the
		// phase-2 degree cap: this G(n,m) has no high-degree vertex.
		"matching": 2,
	}

	s := table1Summary(t)
	got := map[string]int{}
	for _, p := range s.Phases {
		if p.EmptyRounds > 0 {
			got[p.Phase] = p.EmptyRounds
		}
	}
	if s.Rounds != 791 {
		t.Errorf("the twelve calls charge %d rounds, want 791", s.Rounds)
	}
	phases := make([]string, 0, len(got)+len(allowed))
	for phase := range got {
		phases = append(phases, phase)
	}
	for phase := range allowed {
		if got[phase] == 0 {
			phases = append(phases, phase)
		}
	}
	slices.Sort(phases)
	for _, phase := range phases {
		switch {
		case strings.HasSuffix(phase, "/aggregate"):
			t.Errorf("%s charges %d empty rounds: an aggregation's own round carries its partials", phase, got[phase])
		case got[phase] != allowed[phase]:
			t.Errorf("%s charges %d empty rounds, the allow-list says %d", phase, got[phase], allowed[phase])
		}
	}
}

// TestTable1SortCalls pins how often the twelve Table-1 calls sort, by the
// phase path that asks: one Sort is one reply round, charged under
// "<path>/sort/broadcast". An algorithm that aggregates or disseminates over
// one request set more than once builds one plan of it (DESIGN.md §1) and
// sorts it once, under "<alg>/plan"; its aggregations and disseminations
// over the plan sort nothing. The Sorts left are of request sets that change
// between calls — a contracted graph's endpoints, a peeling's live edges —
// or of data that is not a request set. A Sort of an unchanged request set
// fails here, by the path that runs it. Connectivity sorts its edge
// incidences once, under "connectivity/sketch", and aggregates nothing.
func TestTable1SortCalls(t *testing.T) {
	want := map[string]int{
		"baseline-cc/aggregate":      13,
		"baseline-cc/broadcast":      13,
		"connectivity/sketch":        1,
		"baseline-mst/aggregate":     18,
		"baseline-mst/broadcast":     18,
		"mst/contract/arrange":       3,
		"mst/contract/aggregate":     2,
		"mst/contract/broadcast":     2,
		"mst/sample/broadcast":       1,
		"baseline-spanner/plan":      1,
		"baseline-spanner/aggregate": 3,
		"spanner/plan":               1,
		"spanner/aggregate":          2,
		"spanner/broadcast":          1,
		"baseline-coloring/plan":     1,
		"coloring/aggregate":         1,
		"baseline-mis/plan":          1,
		"mis/plan":                   1,
		"peel/aggregate":             10,
		"peel/broadcast":             10,
		"matching/plan":              1,
		"matching/peel/aggregate":    4,
		"matching/peel/broadcast":    4,
		"matching/arrange":           1,
	}
	got := map[string]int{}
	for _, p := range table1Summary(t).Phases {
		if path, ok := strings.CutSuffix(p.Phase, "/sort/broadcast"); ok {
			got[path] = p.Rounds
		}
	}
	paths := make([]string, 0, len(got)+len(want))
	for path := range got {
		paths = append(paths, path)
	}
	for path := range want {
		if got[path] == 0 {
			paths = append(paths, path)
		}
	}
	slices.Sort(paths)
	for _, path := range paths {
		if got[path] != want[path] {
			t.Errorf("%s sorts %d times, want %d", path, got[path], want[path])
		}
	}
}

// TestTable1SketchSortWords pins what connectivity's Sort carries (DESIGN.md
// §3.4): its items are 2-word edge incidences, 2m of them, so the rounds
// under "connectivity/sketch/sort" carry at most 64 K words at n=512,
// m=4096. Sorting partial sketches instead — 1,026 words an incidence at
// this size — carried 8.1 M, and a Sort of sketch-sized items fails here.
func TestTable1SketchSortWords(t *testing.T) {
	var words int64
	for _, p := range table1Summary(t).Phases {
		if strings.HasPrefix(p.Phase, "connectivity/sketch/sort") {
			words += p.Words
		}
	}
	if words == 0 || words > 64<<10 {
		t.Errorf("connectivity/sketch/sort* carries %d words, want at most %d", words, 64<<10)
	}
}

// TestTable1ReplyShare pins what Sort's step 3 may cost (DESIGN.md §1): over
// the same twelve calls the rounds charged to a phase path ending in
// "sort/broadcast" — the coordinator's replies to the samples — carry at most
// 15 % of all words. They carried 55 % when every reply was the whole
// splitter list, 3·(K-1)+1 words to each of K machines that mostly held
// fewer items than that; a collective that recites a K-long list to K
// machines again fails here, by its path.
func TestTable1ReplyShare(t *testing.T) {
	s := table1Summary(t)
	var replies int64
	for _, p := range s.Phases {
		if strings.HasSuffix(p.Phase, "sort/broadcast") {
			replies += p.Words
		}
	}
	share := float64(replies) / float64(s.Words)
	t.Logf("Sort's replies carry %d of %d words (%.1f %%)", replies, s.Words, 100*share)
	if share > 0.15 {
		t.Errorf("phase paths ending in sort/broadcast carry %.1f %% of the words charged, want at most 15 %%", 100*share)
	}
}
