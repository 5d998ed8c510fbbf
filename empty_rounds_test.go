package hetmpc_test

import (
	"slices"
	"strings"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

// table1Cell is Table 1's cell template: n=512 m=4096 seed 7, every other
// field at its default. A test reaches another cell by setting fields on it.
func table1Cell() hetmpc.Config { return hetmpc.Config{N: 512, M: 4096, Seed: 7} }

// table1Calls is the twelve calls of Table 1 on table1Cell.
func table1Calls() []exp.Table1Call { return exp.Table1Calls(table1Cell()) }

// runCall makes call on a fresh cluster of cfg — call.Config, or a copy with
// a trace or fault plan set — and returns its validated output and the
// cluster.
func runCall(t *testing.T, call exp.Table1Call, cfg hetmpc.Config) (any, *hetmpc.Cluster) {
	t.Helper()
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := call.Run(c)
	if err != nil {
		t.Fatalf("n=%d %s: %v", cfg.N, call.Name, err)
	}
	return out, c
}

// table1Summary runs the twelve Table-1 calls, each on its own traced
// cluster, and returns the summary of the twelve timelines concatenated.
func table1Summary(t *testing.T) *hetmpc.TraceSummary {
	t.Helper()
	return hetmpc.SummarizeTrace(table1Rounds(t))
}

// table1Rounds is the twelve Table-1 calls' timelines, concatenated.
func table1Rounds(t *testing.T) []hetmpc.TraceRound {
	t.Helper()
	var rounds []hetmpc.TraceRound
	for _, call := range table1Calls() {
		cfg := call.Config
		cfg.Trace = hetmpc.NewTrace()
		runCall(t, call, cfg)
		rounds = append(rounds, cfg.Trace.Rounds()...)
	}
	return rounds
}

// TestTable1EmptyRounds pins the model clock's silent barriers (DESIGN.md
// §6): over the twelve Table-1 calls a round that moves no words is charged
// only where the list below says so, by phase path. Every entry is
// data-dependent: the round is a fixed step of a protocol that had nothing
// to send on this input, not a mechanism that can never send. AggregateByKey
// had three of the latter per call (its boundary-report, instruction and
// tree-combine rounds); no phase ending in "aggregate" may charge an empty
// round again — AggregateByKey charges none of its own, and PlanCombine's one
// there is the route round that carries every partial — except the two
// random-mate loops' below, and a new empty round anywhere fails by its path.
func TestTable1EmptyRounds(t *testing.T) {
	// 19 of the 587 rounds. The protocols below run a fixed number of
	// rounds so that the round count depends on public parameters only; each
	// listed round had nothing to carry on this input.
	allowed := map[string]int{
		// Sort's route round over no items: the spanner disseminates cluster
		// tables to no sampled level, and a random-mate phase in which every
		// remaining label flipped head plans no request (the sample,
		// summary and reply rounds still carry one header word a message:
		// an empty run has no cuts).
		"spanner/aggregate/sort": 1,
		"spanner/plan/sort":      1,
		"baseline-cc/plan/sort":  1,
		"baseline-mst/plan/sort": 1,
		// PlanCombine's route round with no partial to carry: a random-mate
		// phase aggregates only under tail labels — connectivity only where
		// one borders a head label — and in these phases no machine holds
		// one. These are the only aggregate leaves allowed an empty round.
		"baseline-cc/aggregate":  2,
		"baseline-mst/aggregate": 1,
		// The answer round of a dissemination where no requested key has a
		// value to answer with: MST's KKT step samples no forest edge here,
		// so it has no label to send. Every Table-1 plan is key-aligned, so
		// no dissemination has a tree-down round and no PlanCombine a
		// span-up round.
		"baseline-cc/broadcast":  2,
		"baseline-mst/broadcast": 1,
		"mst/sample/broadcast":   1,
		"spanner/broadcast":      1,
		// GatherToLarge with nothing left to gather (an empty residual or
		// sample).
		"matching/gather":   1,
		"mst/sample/gather": 1,
		"spanner/gather":    2,
		// Connectivity's contraction where no vertex ships its sketches: the
		// large machine holds every incidence, so the scatter has no root to
		// send, the route no incidence to carry and the second gather no
		// share to ship.
		"connectivity/sketch/scatter": 1,
		"connectivity/sketch/route":   1,
		"connectivity/sketch/gather":  1,
	}

	s := table1Summary(t)
	got := map[string]int{}
	for _, p := range s.Phases {
		if p.EmptyRounds > 0 {
			got[p.Phase] = p.EmptyRounds
		}
	}
	if s.Rounds != 587 {
		t.Errorf("the twelve calls charge %d rounds, want 587", s.Rounds)
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
		// Borůvka and random-mate connectivity aggregate under a phase's
		// tail labels only, so a phase can leave PlanCombine's route round
		// with no partial; every other aggregation's own round carries some.
		case strings.HasSuffix(phase, "/aggregate") && phase != "baseline-cc/aggregate" && phase != "baseline-mst/aggregate":
			t.Errorf("%s charges %d empty rounds: an aggregation's own round carries its partials", phase, got[phase])
		case got[phase] != allowed[phase]:
			t.Errorf("%s charges %d empty rounds, the allow-list says %d", phase, got[phase], allowed[phase])
		}
	}
}

// TestTable1SortCalls pins how often the twelve Table-1 calls sort, by the
// phase path that asks: one Sort is one reply round, charged under
// "<path>/sort/broadcast". Every dissemination is a plan (DESIGN.md §1),
// sorted under "<alg>/plan", and an algorithm that aggregates or
// disseminates over one request set more than once builds one plan of it and
// sorts it once; its aggregations and disseminations over the plan sort
// nothing. A caller hands down its plan of the same request set: core
// matching's peel runs its first iteration over matching's endpoint plan,
// so "matching/peel/plan" sorts once an iteration after the first. A
// request set that changes between phases — the random-mate loops' tail
// labels, a peeling's live endpoints — is planned once a phase and dropped
// when the phase ends. The Sorts left are
// of request sets that change between calls — a contracted graph's
// endpoints — or of data that is not a request set. A Sort of an unchanged
// request set fails here, by the path that runs it. Connectivity sorts its
// edge incidences once, under "connectivity/sketch", and aggregates nothing.
func TestTable1SortCalls(t *testing.T) {
	want := map[string]int{
		"baseline-cc/plan":           13,
		"connectivity/sketch":        1,
		"baseline-mst/plan":          18,
		"mst/contract/arrange":       3,
		"mst/contract/aggregate":     2,
		"mst/contract/plan":          2,
		"mst/sample/plan":            1,
		"baseline-spanner/plan":      1,
		"baseline-spanner/aggregate": 3,
		"spanner/plan":               2,
		"spanner/aggregate":          2,
		"baseline-coloring/plan":     1,
		"coloring/aggregate":         1,
		"baseline-mis/plan":          1,
		"mis/plan":                   1,
		"peel/plan":                  5,
		"matching/plan":              1,
		"matching/peel/plan":         1,
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

// TestTable1SketchGatherWords pins what connectivity's sketch gathers carry
// (DESIGN.md §3.4): each share ships its group once, and each of its
// sketches its depth and the levels it stores, 1 + 2·depth words — the large
// machine rebuilds the key, family id and universe, and a level ships its
// (z, fp) pair without the count word the fingerprint makes redundant; the
// first gather ships the first 3 of the P = ⌈log2(n+2)⌉ + 8 families per
// vertex, with a degree word, or the vertex's incidences (group, degree and
// neighbours, 2 + deg words) where they cost fewer words, and the second
// the other 15 once per share of a component, of the vertices that shipped
// sketches. At n=512, m=4096 every vertex ships its incidences, so the
// rounds under "connectivity/sketch/gather" carry 9,216 words, 2 + deg a
// vertex, and the ceiling is that plus 2 %, 9,400. While every vertex rode
// the contraction they carried 23,240, every vertex's sketches 32,832,
// a (count, z, fp) triple a level 46,940, a key and a 3-word header on
// every sketch 52,934, charging every sketch as the full 18-level sampler
// 525,312, shipping all 18 families per vertex at once 184,203, and
// shipping the first 9 per vertex, pulling more as Borůvka read them,
// 92,085; a gather that charges levels no sketch stores, ships what the
// large machine can rebuild, ships sketches that cost more than the
// incidences they sum, or ships a sketch per vertex where one per
// component share will do, fails here.
func TestTable1SketchGatherWords(t *testing.T) {
	var words int64
	for _, p := range table1Summary(t).Phases {
		if strings.HasPrefix(p.Phase, "connectivity/sketch/gather") {
			words += p.Words
		}
	}
	t.Logf("connectivity/sketch/gather carries %d words", words)
	if words == 0 || words > 9_400 {
		t.Errorf("connectivity/sketch/gather carries %d words, want at most %d", words, 9_400)
	}
}

// TestTable1SortCoordinatorShare counts what ROADMAP item M sets out to
// lower: over the twelve Table-1 calls, the makespan of the rounds under a
// ".../sort" phase path in which one machine sends or receives at least
// half the round's words — the coordinator's sample and reply rounds, where
// every machine's whole run meets one machine. It was 73.3 % of Table 1's
// makespan (1.75 M of 2.39 M) while every key cost 3 words and every cut 2;
// charged by their columns and in the shorter cut form (DESIGN.md §1) it
// was 58.5 % (0.90 M of 1.54 M), and with key-aligned plans 55.1 % (0.84 M
// of 1.52 M). Sending runs whole by cost does not move it: at n=512 no run
// is longer than q. A gather that shrinks the denominator, as connectivity's
// sketch batches did, raises the share without the coordinator doing more,
// so the makespan is pinned as an absolute ceiling. It was 838,866, the
// 55.2 % share's 0.552 × 1,519,684; Arrange's grouped sample, its grouping
// column only, took the rounds to 760,659. Since ⌈√K⌉ group leaders read
// the samples and cut their groups' runs (sortLeaders) no Table-1 Sort
// round has one machine at half its words but those of a Sort whose
// coordinator still leads alone: 8,420, and the ceiling is that plus 2 %.
func TestTable1SortCoordinatorShare(t *testing.T) {
	var coord, total float64
	for _, r := range table1Rounds(t) {
		total += r.Makespan
		if !strings.HasSuffix(r.Phase, "/sort") && !strings.Contains(r.Phase, "/sort/") || r.Words == 0 {
			continue
		}
		peak := 0
		for slot := range r.SendWords {
			peak = max(peak, r.SendWords[slot], r.RecvWords[slot])
		}
		if 2*int64(peak) >= r.Words {
			coord += r.Makespan
		}
	}
	t.Logf("coordinator-bound Sort rounds: %.0f of %.0f makespan (%.1f %%)", coord, total, 100*coord/total)
	if coord > 8_590 {
		t.Errorf("coordinator-bound Sort rounds carry %.0f of Table 1's makespan, want at most 8,590", coord)
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
