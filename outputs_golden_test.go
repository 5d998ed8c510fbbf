package hetmpc_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

// outputDigest is the FNV-64a hash of a Table-1 call's output fields — every
// exported field of its result but Stats, printed with %v in declaration
// order (a bare slice result is its own one field; a peeling's result is
// its matching, the bare slice BaselineMatching returns) — and size, the
// summed length of those fields that are slices.
func outputDigest(out any) (size int, sum uint64) {
	if p, ok := out.(*hetmpc.PeelResult); ok {
		out = slices.Concat(p.Matched...)
	}
	h := fnv.New64a()
	v := reflect.Indirect(reflect.ValueOf(out))
	field := func(name string, f reflect.Value) {
		if f.Kind() == reflect.Slice {
			size += f.Len()
		}
		fmt.Fprintf(h, "%s=%v;", name, f.Interface())
	}
	if v.Kind() == reflect.Struct {
		for j := 0; j < v.NumField(); j++ {
			if name := v.Type().Field(j).Name; name != "Stats" && v.Type().Field(j).IsExported() {
				field(name, v.Field(j))
			}
		}
	} else {
		field("", v)
	}
	return size, h.Sum64()
}

// TestTable1OutputsGolden pins the outputs of all twelve Table-1 calls (n=512
// m=4096 seed 7), not their Stats: each call's output size and hash. A change
// to how an algorithm reads its plan's answers, or keeps its per-vertex
// state, must leave every one of them bit-identical.
func TestTable1OutputsGolden(t *testing.T) {
	want := map[string]struct {
		size int
		sum  uint64
	}{
		"sublinear.cc":       {512, 0x1f1302d34506ef05},
		"core.cc":            {512, 0xd4d737704d261d65},
		"sublinear.mst":      {511, 0x4eaad0fa78b87a54},
		"core.mst":           {511, 0x32e8c5572e4308bd},
		"sublinear.spanner":  {3113, 0xfeea299bba254a4e},
		"core.spanner":       {707, 0x03b0702b49805f69},
		"sublinear.coloring": {512, 0xdb3d285209eb2fb6},
		"core.coloring":      {512, 0x2d606fcaa5a45d49},
		"sublinear.mis":      {94, 0x68a0726ce3d5c06a},
		"core.mis":           {89, 0xc9fa09115d1c68b7},
		"sublinear.matching": {246, 0x6513f31c791e01b2},
		"core.matching":      {248, 0x07b4305c43d248a1},
	}
	for _, call := range table1Calls() {
		out, _ := runCall(t, call, call.Config)
		size, sum := outputDigest(out)
		if w := want[call.Name]; size != w.size || sum != w.sum {
			t.Errorf("%s: output size %d hash %#x, want %d %#x", call.Name, size, sum, w.size, w.sum)
		}
	}
}

// table1At4096 is each Table-1 call's output size and hash, and its rounds,
// at n=4096 m=8n seed 7.
var table1At4096 = map[string]struct {
	size   int
	sum    uint64
	rounds int
}{
	"sublinear.cc":       {4096, 0x9214ad10afbcbe5c, 99},
	"core.cc":            {4096, 0x9214ad10afbcbe5c, 9},
	"sublinear.mst":      {4095, 0x6376902961801496, 211},
	"core.mst":           {4095, 0xfeb8b7a4e50ae88c, 49},
	"sublinear.spanner":  {32302, 0xd4e541af5c7f9869, 21},
	"core.spanner":       {6683, 0xc18732640ed247e2, 38},
	"sublinear.coloring": {4096, 0x7b8202f627ccdb47, 50},
	"core.coloring":      {4096, 0xcb9f32e4f65dd995, 9},
	"sublinear.mis":      {702, 0xef2c941bbc9272ff, 31},
	"core.mis":           {725, 0xbdbe91171e8a640e, 48},
	"sublinear.matching": {1942, 0xa5069830aaff4944, 52},
	"core.matching":      {1944, 0x099e0c97b0a641b8, 31},
}

// TestTable1At4096Golden pins the twelve Table-1 calls at n=4096 m=8n seed 7,
// where a machine holds more plan requests than Sort's sample takes at
// n=512: each call's output, checked against the exact reference, by size
// and hash, its rounds, and the twelve calls' makespan as a ceiling.
func TestTable1At4096Golden(t *testing.T) {
	const n = 4096
	var makespan float64
	for _, call := range exp.Table1Calls(hetmpc.Config{N: n, M: 8 * n, Seed: 7}) {
		out, c := runCall(t, call, call.Config)
		size, sum := outputDigest(out)
		rounds := c.Stats().Rounds
		if w := table1At4096[call.Name]; size != w.size || sum != w.sum || rounds != w.rounds {
			t.Errorf("%s: output size %d hash %#x in %d rounds, want %d %#x in %d", call.Name, size, sum, rounds, w.size, w.sum, w.rounds)
		}
		makespan += c.Stats().Makespan
	}
	// The twelve calls measure 1,778,396; the ceiling is that plus 1.8 %,
	// 1.81 M.
	t.Logf("the twelve calls' makespan: %.0f", makespan)
	if makespan > 1.81e6 {
		t.Errorf("the twelve calls' makespan is %.0f, want at most 1.81 M", makespan)
	}
}

// TestTable1RoundsFlatInN gates the paper's round claim beyond one n: each
// heterogeneous Table-1 call's rounds at n=1024 and n=4096 (m=8n seed 7) are
// at most its rounds at n=256 plus 1, every output checked against the
// exact reference. The n=4096 rounds are the ones TestTable1At4096Golden
// pins. The baselines' rounds, which may grow with n, are logged, not gated
// (internal/sublinear's TestBaselineConnectivityPhasesGrowWithN holds
// connectivity's to its log n envelope).
func TestTable1RoundsFlatInN(t *testing.T) {
	rounds := func(call exp.Table1Call) int {
		_, c := runCall(t, call, call.Config)
		return c.Stats().Rounds
	}
	at1024 := exp.Table1Calls(hetmpc.Config{N: 1024, M: 8 * 1024, Seed: 7})
	for i, call := range exp.Table1Calls(hetmpc.Config{N: 256, M: 8 * 256, Seed: 7}) {
		r256, r4096 := rounds(call), table1At4096[call.Name].rounds
		if call.Config.NoLarge {
			t.Logf("%s: %d rounds at n=256, %d at n=4096", call.Name, r256, r4096)
			continue
		}
		r1024 := rounds(at1024[i])
		t.Logf("%s: %d / %d / %d rounds at n=256/1024/4096", call.Name, r256, r1024, r4096)
		if r1024 > r256+1 || r4096 > r256+1 {
			t.Errorf("%s: %d rounds at n=1024 and %d at n=4096, want at most n=256's %d plus 1", call.Name, r1024, r4096, r256)
		}
	}
}

// TestTable1MakespanSmoothInM gates the makespan's growth in the density at
// n=1024 seed 7: each Table-1 call's makespan at m=16n is at most 3× its
// makespan at m=8n, and at m=32n at most 3× its makespan at m=16n, every
// output checked against the exact reference. Doubling m doubles the input,
// so about 2× is the honest growth; a Sort whose leaders' held state is
// overcounted funnels every sample through the coordinator instead
// (sortLeaders, DESIGN.md §1), which costs a call up to 18× here.
func TestTable1MakespanSmoothInM(t *testing.T) {
	const n = 1024
	makespan := func(call exp.Table1Call) float64 {
		_, c := runCall(t, call, call.Config)
		return c.Stats().Makespan
	}
	at16n, at32n := exp.Table1Calls(hetmpc.Config{N: n, M: 16 * n, Seed: 7}), exp.Table1Calls(hetmpc.Config{N: n, M: 32 * n, Seed: 7})
	for i, call := range exp.Table1Calls(hetmpc.Config{N: n, M: 8 * n, Seed: 7}) {
		m8, m16, m32 := makespan(call), makespan(at16n[i]), makespan(at32n[i])
		t.Logf("%s: makespan %.0f / %.0f / %.0f at m=8n/16n/32n (%.2f×, %.2f×)", call.Name, m8, m16, m32, m16/m8, m32/m16)
		if m16 > 3*m8 {
			t.Errorf("%s: makespan %.0f at m=16n, want at most 3× m=8n's %.0f", call.Name, m16, m8)
		}
		if m32 > 3*m16 {
			t.Errorf("%s: makespan %.0f at m=32n, want at most 3× m=16n's %.0f", call.Name, m32, m16)
		}
	}
}

// TestTable1TightLargeCap runs the twelve Table-1 calls on table1Cell with
// the large machine's cap at LogExpLarge 1, where the input (3m words) still
// fits it: every call returns an output checked against the exact
// reference, in the rounds it takes on the default cell. Colouring ships a
// conflict edge as its 2 endpoint words and lets them fill a quarter of the
// large cap (DESIGN.md §3.6, substitution 4); counted at 3 words an edge,
// every try's 4,096 conflict edges were refused here and colouring gave up.
func TestTable1TightLargeCap(t *testing.T) {
	tight := table1Cell()
	tight.LogExpLarge = 1
	def := table1Calls()
	for i, call := range exp.Table1Calls(tight) {
		c, err := hetmpc.NewCluster(call.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := call.Run(c); err != nil {
			t.Errorf("%s at large cap %d: %v", call.Name, c.LargeCap(), err)
			continue
		}
		_, d := runCall(t, def[i], def[i].Config)
		got, want := c.Stats(), d.Stats()
		t.Logf("%s: %d rounds, makespan %.0f (default cell %d, %.0f)", call.Name, got.Rounds, got.Makespan, want.Rounds, want.Makespan)
		if got.Rounds != want.Rounds {
			t.Errorf("%s: %d rounds at large cap %d, want the default cell's %d", call.Name, got.Rounds, c.LargeCap(), want.Rounds)
		}
	}
}

// TestTable1AtGammaThird runs the twelve Table-1 calls at n=1024 m=8n seed 7
// with γ = 1/3, each output checked against the exact reference, and gates
// the paper's round claim across γ: each heterogeneous call's rounds at
// γ = 1/3 are at most its rounds at γ = 1/2 plus 1. The makespans are logged
// beside γ = 1/2's, not gated: at γ = 1/3 the twelve calls cost several
// times γ = 1/2's. The baselines' rounds, which may grow as the machines
// shrink, are logged too.
func TestTable1AtGammaThird(t *testing.T) {
	half := hetmpc.Config{N: 1024, M: 8 * 1024, Seed: 7}
	third := half
	third.Gamma = 1.0 / 3
	var sumHalf, sumThird float64
	atHalf := exp.Table1Calls(half)
	for i, call := range exp.Table1Calls(third) {
		_, ch := runCall(t, atHalf[i], atHalf[i].Config)
		_, cth := runCall(t, call, call.Config)
		h, th := ch.Stats(), cth.Stats()
		sumHalf, sumThird = sumHalf+h.Makespan, sumThird+th.Makespan
		t.Logf("%s: makespan %.0f at γ=1/3, %.0f at γ=1/2 (%.2f×); %d rounds at γ=1/3, %d at γ=1/2",
			call.Name, th.Makespan, h.Makespan, th.Makespan/h.Makespan, th.Rounds, h.Rounds)
		if !call.Config.NoLarge && th.Rounds > h.Rounds+1 {
			t.Errorf("%s: %d rounds at γ=1/3, want at most γ=1/2's %d plus 1", call.Name, th.Rounds, h.Rounds)
		}
	}
	t.Logf("the twelve calls: makespan %.0f at γ=1/3, %.0f at γ=1/2 (%.2f×)", sumThird, sumHalf, sumThird/sumHalf)
}

// TestConnectivityBatchGolden pins core connectivity's output on G(512, 4096)
// at four seeds whose Borůvka reads 8, 10, 11 and 13 sketch families (the
// phases): each output's hash, labels, component count and phase count
// included. Every run reads more than the contractAfter = 3 families the
// first gather ships per vertex, so each contracts — a scatter, a route and
// a gather of the later families per component share — and takes 9 rounds
// whatever it reads (its incidence Sort exchanges summaries, DESIGN.md §1).
// Each makespan is pinned as a ceiling at its measured value since a vertex
// ships its incidences where they cost fewer words than its sketches
// (DESIGN.md §3.4); with every vertex's sketches shipped the runs measured
// 77,877, 76,675, 74,489 and 80,031, and with the families gathered per
// vertex in batches pulled as Borůvka reached them, in 5, 7, 9 and 11
// rounds, 219,199, 237,965, 282,513 and 362,369.
func TestConnectivityBatchGolden(t *testing.T) {
	for _, w := range []struct {
		seed     uint64
		phases   int
		sum      uint64
		rounds   int
		makespan float64 // ceiling
	}{
		{7, 8, 0xd4d737704d261d65, 9, 58_693},
		{24, 10, 0x1f1d02d3450f438a, 9, 56_855},
		{17, 11, 0x1f19fad3450d001b, 9, 55_305},
		{61, 13, 0x1f1302d34506ef05, 9, 60_291},
	} {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: w.seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := hetmpc.Connectivity(c, hetmpc.ConnectedGNM(512, 4096, w.seed, false))
		if err != nil {
			t.Fatalf("seed %d: %v", w.seed, err)
		}
		_, sum := outputDigest(res)
		if res.Phases != w.phases || sum != w.sum {
			t.Errorf("seed %d: %d phases, output hash %#x, want %d %#x", w.seed, res.Phases, sum, w.phases, w.sum)
		}
		st := c.Stats()
		t.Logf("seed %d: %d rounds, makespan %.0f", w.seed, st.Rounds, st.Makespan)
		if st.Rounds != w.rounds {
			t.Errorf("seed %d: %d rounds, want %d", w.seed, st.Rounds, w.rounds)
		}
		if st.Makespan > w.makespan {
			t.Errorf("seed %d: makespan %.0f, want at most %.0f", w.seed, st.Makespan, w.makespan)
		}
	}
}

// TestMatchingPhase2Golden pins what maximal matching's Phase 2 costs
// (DESIGN.md §3.3): the degrees stay at their roots on the endpoint plan,
// each root counts its vertices of degree above d², and the count rides a
// SumAll under "matching/count" — one round of a word a machine to the
// coordinator and one back, where the large machine used to gather every
// degree (a word a vertex) and broadcast the count. Only the high vertices
// are flagged, arranged and collected. On G(512, 4096) there is none, so
// those two rounds are all of Phase 2: phase 3's dissemination is the one
// scatter under "matching/broadcast", nothing runs under "matching/seed" or
// "matching/arrange", and CollectBudget's query and reply rounds, charged
// under "matching" itself, do not run. On the hub graphs the roots hand their
// flags to PlanBroadcast directly, so phase 3's is still the one scatter. On
// PlantedHubs(400, 4, 4, 350, 11) only the copies filed under a high vertex
// are arranged, so the Arrange's route round carries at most EdgeWords + 2 =
// 5 words a high vertex's incidence; arranging every edge's two copies
// routed 5 words each of 2m. The peel's first iteration runs over the
// endpoint plan, a superset of the low edges' endpoints on the hub graphs,
// so the peel sorts once an iteration after the first. Each output's size
// and hash (outputDigest) on those two graphs, PlantedHubs(300, 4, 3, 250,
// 7) and Star(80) is the one the matching returned when every vertex's
// degree was broadcast, every edge arranged and every peel iteration
// planned its own endpoints.
func TestMatchingPhase2Golden(t *testing.T) {
	for _, w := range []struct {
		name string
		g    *hetmpc.Graph
		seed uint64
		size int
		sum  uint64
	}{
		{"gnm", hetmpc.GNM(512, 4096, 7), 7, 239, 0x40943a481ff0cf87},
		{"hubs-400", hetmpc.PlantedHubs(400, 4, 4, 350, 11), 3, 163, 0xf011f6c0bb3c66f4},
		{"hubs-300", hetmpc.PlantedHubs(300, 4, 3, 250, 7), 9, 124, 0x528084a7d5ef53d4},
		{"star", hetmpc.Star(80), 3, 1, 0x09c9849d4bb6c30a},
	} {
		tr := hetmpc.NewTrace()
		c, err := hetmpc.NewCluster(hetmpc.Config{N: w.g.N, M: w.g.M(), Seed: w.seed, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := hetmpc.MaximalMatching(c, w.g)
		if err != nil {
			t.Fatal(err)
		}
		if err := hetmpc.CheckMatching(w.g, res.Edges, true); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if size, sum := outputDigest(res); size != w.size || sum != w.sum {
			t.Errorf("%s: output size %d hash %#x, want %d %#x", w.name, size, sum, w.size, w.sum)
		}
		rounds, words, route := map[string]int{}, map[string]int64{}, int64(0)
		for _, r := range tr.Rounds() {
			rounds[r.Phase]++
			words[r.Phase] += r.Words
			if r.Phase == "matching/arrange/sort" {
				route = r.Words // the Sort's last round under its own phase
			}
		}
		for _, phase := range []string{"matching/count/sum", "matching/count/sum/broadcast"} {
			if rounds[phase] != 1 || words[phase] != int64(c.K()) {
				t.Errorf("%s: %d rounds under %q carry %d words, want 1 of %d", w.name, rounds[phase], phase, words[phase], c.K())
			}
		}
		if sorts, want := rounds["matching/peel/plan/sort/broadcast"], max(res.Phase1Iters-1, 0); sorts != want {
			t.Errorf("%s: the peel sorts %d times in %d iterations, want %d: its first runs over the endpoint plan",
				w.name, sorts, res.Phase1Iters, want)
		}
		if rounds["matching/broadcast/scatter"] != 1 {
			t.Errorf("%s: %d scatter rounds under matching/broadcast, want phase 3's 1", w.name, rounds["matching/broadcast/scatter"])
		}
		switch w.name {
		case "gnm":
			for phase, want := range map[string]int{
				"matching/broadcast":      1,
				"matching/seed/broadcast": 0, "matching/arrange": 0, "matching/arrange/sort": 0, "matching": 0,
			} {
				if rounds[phase] != want {
					t.Errorf("%s: %d rounds under %q, want %d", w.name, rounds[phase], phase, want)
				}
			}
		case "hubs-400":
			deg := make([]int64, w.g.N)
			for _, e := range w.g.Edges {
				deg[e.U]++
				deg[e.V]++
			}
			d := max(int64(math.Ceil(2*float64(w.g.M())/float64(w.g.N))), 2)
			var highDeg int64
			for _, dv := range deg {
				if dv > d*d {
					highDeg += dv
				}
			}
			if ceiling := 5 * highDeg; highDeg == 0 || route > ceiling {
				t.Errorf("%s: the Arrange's route round carries %d words, want at most %d (5 words a high vertex's incidence)",
					w.name, route, ceiling)
			}
		}
	}
}
