package core

import (
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sublinear"
)

func checkMatchingRun(t *testing.T, g *graph.Graph, seed uint64) *MatchingResult {
	t.Helper()
	c := newCluster(t, g.N, g.M(), seed)
	res, err := MaximalMatching(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, res.Edges, true); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMaximalMatchingRandom(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{64, 200},
		{128, 1000},
		{200, 600},
	} {
		g := graph.GNM(tc.n, tc.m, uint64(tc.n)+1)
		checkMatchingRun(t, g, 5)
	}
}

func TestMaximalMatchingHighDegree(t *testing.T) {
	// Star: matching is a single edge, phase 2 must handle the hub.
	s := graph.Star(80)
	res := checkMatchingRun(t, s, 3)
	if len(res.Edges) != 1 {
		t.Fatalf("star matching has %d edges, want 1", len(res.Edges))
	}
	// Planted hubs: huge Δ, small average degree.
	g := graph.PlantedHubs(300, 4, 3, 250, 7)
	checkMatchingRun(t, g, 9)
}

func TestMaximalMatchingEdgeCases(t *testing.T) {
	// Empty graph.
	e := graph.New(10, nil, false)
	c := newCluster(t, 10, 0, 1)
	res, err := MaximalMatching(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Fatal("phantom matching edges")
	}
	// Single edge.
	one := graph.New(4, []graph.Edge{graph.NewEdge(0, 1, 1)}, false)
	c2 := newCluster(t, 4, 1, 1)
	res2, err := MaximalMatching(c2, one)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Edges) != 1 {
		t.Fatal("single edge not matched")
	}
	// Perfect-matching graph (disjoint edges).
	var pm []graph.Edge
	for v := 0; v < 40; v += 2 {
		pm = append(pm, graph.NewEdge(v, v+1, 1))
	}
	g := graph.New(40, pm, false)
	c3 := newCluster(t, 40, 20, 2)
	res3, err := MaximalMatching(c3, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Edges) != 20 {
		t.Fatalf("disjoint edges: matched %d of 20", len(res3.Edges))
	}
}

func TestSublinearBaselineMatching(t *testing.T) {
	g := graph.GNM(128, 800, 7)
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), NoLarge: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	match, peel, err := sublinear.MaximalMatching(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, match, true); err != nil {
		t.Fatal(err)
	}
	if peel.Iterations < 1 {
		t.Fatal("baseline should need at least one iteration")
	}
}

func TestMatchingDegreeSeparation(t *testing.T) {
	// The Theorem 5.1 shape (experiment E7): heterogeneous peeling runs on
	// the low-degree induced subgraph, so raising Δ (hub degree) while
	// keeping the average degree fixed must NOT increase phase-1 iterations.
	n := 400
	small := graph.PlantedHubs(n, 4, 4, 50, 11)
	big := graph.PlantedHubs(n, 4, 4, 350, 11)
	rSmall := checkMatchingRun(t, small, 21)
	rBig := checkMatchingRun(t, big, 21)
	if rBig.Phase1Iters > rSmall.Phase1Iters+1 {
		t.Fatalf("phase-1 iterations grew with Δ: %d -> %d", rSmall.Phase1Iters, rBig.Phase1Iters)
	}
}

func TestMatchingFiltering(t *testing.T) {
	g := graph.GNM(128, 2000, 9)
	// Superlinear memory: few iterations.
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), F: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MatchingFiltering(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, res.Edges, true); err != nil {
		t.Fatal(err)
	}
	// A graph already fitting the n^{1+f} budget: zero iterations.
	small := graph.GNM(64, 100, 3)
	c2, err := mpc.New(mpc.Config{N: 64, M: 100, F: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := MatchingFiltering(c2, small)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(small, res2.Edges, true); err != nil {
		t.Fatal(err)
	}
	if res2.FilterIters != 0 {
		t.Fatalf("small graph should need 0 filtering iterations, got %d", res2.FilterIters)
	}
	// More memory ⇒ fewer iterations (the 1/f shape).
	big := graph.GNM(128, 4000, 11)
	itersAt := func(f float64) int {
		cf, err := mpc.New(mpc.Config{N: 128, M: 4000, F: f, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		r, err := MatchingFiltering(cf, big)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckMatching(big, r.Edges, true); err != nil {
			t.Fatal(err)
		}
		return r.FilterIters
	}
	if lo, hi := itersAt(0.6), itersAt(0.15); lo > hi {
		t.Fatalf("more memory used more iterations: f=0.6 -> %d, f=0.15 -> %d", lo, hi)
	}
}

// TestMatchingFilteringRounds pins the filtering loop's round count on the
// `hetrun -alg matching-filter -gen gnm -n 256 -m 16384 -f 0.1 -seed 7` run:
// every machine computes the sampling rate from the SumAll it just took, so
// an iteration spends no round broadcasting it. Each iteration's
// DisseminateFromLarge is a plan whose every key is aligned (K is below one
// tree level's fan-out), so it charges its Sort, scatter and answer rounds
// and no tree round: 21 rounds with one tree round an iteration, 19
// without.
func TestMatchingFilteringRounds(t *testing.T) {
	g := graph.GNM(256, 16384, 7)
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), F: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MatchingFiltering(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, res.Edges, true); err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 127 || res.FilterIters != 2 || c.Rounds() != 19 {
		t.Fatalf("%d edges in %d filter iterations and %d rounds, want 127 in 2 and 19",
			len(res.Edges), res.FilterIters, c.Rounds())
	}
}

func TestMatchingDeterministic(t *testing.T) {
	g := graph.GNM(100, 700, 13)
	a := checkMatchingRun(t, g, 31)
	b := checkMatchingRun(t, g, 31)
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("nondeterministic matching size: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("nondeterministic matching")
		}
	}
}
