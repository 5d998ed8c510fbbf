package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

func TestMinCutUnweightedKnown(t *testing.T) {
	// Cycle: min cut 2.
	cyc := graph.Cycles(64, 1, 3)
	c := newCluster(t, cyc.N, cyc.M(), 7)
	res, err := MinCutUnweighted(c, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("cycle min cut %d, want 2", res.Value)
	}
	// Disconnected: 0.
	two := graph.Cycles(60, 2, 5)
	c2 := newCluster(t, two.N, two.M(), 7)
	res2, err := MinCutUnweighted(c2, two)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != 0 {
		t.Fatalf("disconnected min cut %d, want 0", res2.Value)
	}
	// Star: 1 (singleton cut of a leaf).
	s := graph.Star(40)
	c3 := newCluster(t, s.N, s.M(), 7)
	res3, err := MinCutUnweighted(c3, s)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Value != 1 {
		t.Fatalf("star min cut %d, want 1", res3.Value)
	}
}

func TestMinCutUnweightedPlanted(t *testing.T) {
	for _, cut := range []int{2, 4} {
		g := graph.PlantedCut(64, 250, cut, uint64(cut)+11, false)
		want := graph.StoerWagner(g)
		c := newCluster(t, g.N, g.M(), 13)
		res, err := MinCutUnweighted(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("planted cut %d: got %d want %d", cut, res.Value, want)
		}
	}
}

func TestMinCutAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := graph.ConnectedGNM(48, 300, seed, false)
		want := graph.StoerWagner(g)
		c := newCluster(t, g.N, g.M(), seed*7)
		res, err := MinCutUnweighted(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("seed %d: got %d want %d", seed, res.Value, want)
		}
	}
}

func TestApproxMinCutWeighted(t *testing.T) {
	g := graph.PlantedCut(64, 300, 3, 17, true)
	want := graph.StoerWagner(g)
	eps := 0.25
	c := newCluster(t, g.N, g.M(), 5)
	res, err := ApproxMinCut(c, g, eps)
	if err != nil {
		t.Fatal(err)
	}
	lo := float64(want) * (1 - eps - 0.1)
	hi := float64(want) * (1 + eps + 0.1)
	if float64(res.Value) < lo || float64(res.Value) > hi {
		t.Fatalf("approx cut %d outside [%.1f, %.1f] (exact %d)", res.Value, lo, hi, want)
	}
}

func TestApproxMinCutDense(t *testing.T) {
	// Dense graph with a large min cut: the skeleton path must engage.
	g := graph.Complete(48, false, 1)
	for i := range g.Edges {
		g.Edges[i].W = 3
	}
	g.Weighted = true
	want := graph.StoerWagner(g) // 47*3 = 141
	c := newCluster(t, g.N, g.M(), 9)
	res, err := ApproxMinCut(c, g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Value)-float64(want)) > 0.45*float64(want) {
		t.Fatalf("dense approx cut %d vs exact %d", res.Value, want)
	}
}

// TestMinCutDegenerateInputs pins the min-cut algorithms' early returns:
// with no edges, or with one vertex isolated, the cut is 0 for both; and
// ApproxMinCut refuses an eps outside (0, 1), NaN included, before any
// round is charged.
func TestMinCutDegenerateInputs(t *testing.T) {
	isolated := graph.Path(7) // vertex 7 of 8 has no edge
	isolated.N = 8
	exact := func(c *mpc.Cluster, g *graph.Graph) (*MinCutResult, error) { return MinCutUnweighted(c, g) }
	approx := func(eps float64) func(*mpc.Cluster, *graph.Graph) (*MinCutResult, error) {
		return func(c *mpc.Cluster, g *graph.Graph) (*MinCutResult, error) { return ApproxMinCut(c, g, eps) }
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		run     func(*mpc.Cluster, *graph.Graph) (*MinCutResult, error)
		wantErr bool
	}{
		{"exact/no-edges", &graph.Graph{N: 16}, exact, false},
		{"approx/no-edges", &graph.Graph{N: 16}, approx(0.25), false},
		{"exact/isolated-vertex", isolated, exact, false},
		{"approx/isolated-vertex", isolated, approx(0.25), false},
		{"approx/eps=0", graph.Cycles(16, 1, 3), approx(0), true},
		{"approx/eps=1", graph.Cycles(16, 1, 3), approx(1), true},
		{"approx/eps=NaN", graph.Cycles(16, 1, 3), approx(math.NaN()), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.g.N, max(tc.g.M(), 1), 7)
			res, err := tc.run(c, tc.g)
			switch {
			case tc.wantErr && err == nil:
				t.Fatalf("got cut %d, want an error", res.Value)
			case tc.wantErr && c.Stats().Rounds != 0:
				t.Fatalf("%d rounds ran before the error %v", c.Stats().Rounds, err)
			case !tc.wantErr && err != nil:
				t.Fatal(err)
			case !tc.wantErr && res.Value != 0:
				t.Fatalf("cut %d, want 0", res.Value)
			}
		})
	}
}

func checkMISRun(t *testing.T, g *graph.Graph, seed uint64) *MISResult {
	t.Helper()
	c := newCluster(t, g.N, g.M(), seed)
	res, err := MIS(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMIS(g, res.Set); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMISVariousGraphs(t *testing.T) {
	checkMISRun(t, graph.GNM(96, 500, 3), 5)
	checkMISRun(t, graph.Star(64), 5)
	checkMISRun(t, graph.Path(80), 5)
	checkMISRun(t, graph.Complete(32, false, 1), 5)
	checkMISRun(t, graph.Grid(8, 10), 5)
	checkMISRun(t, graph.New(20, nil, false), 5) // empty: all vertices
}

// TestMISGolden pins Table 1's MIS row — n=512, m=4096, seed 7 — to the set
// MIS produced when every iteration re-announced the whole cumulative MIS
// and re-sorted the same requests for every dissemination: announcing only
// an iteration's additions (an earlier vertex's neighbours died in the
// iteration it joined) over one plan of the endpoints changes no vertex.
func TestMISGolden(t *testing.T) {
	g := graph.ConnectedGNM(512, 4096, 7, false)
	res := checkMISRun(t, g, 7)
	h := fnv.New64a()
	fmt.Fprint(h, res.Set)
	if len(res.Set) != 89 || res.Iterations != 8 || h.Sum64() != 0x1f16bb75b2c45841 {
		t.Fatalf("MIS of %d vertices in %d iterations, hash %#x; want the golden 89 in 8, 0x1f16bb75b2c45841",
			len(res.Set), res.Iterations, h.Sum64())
	}
}

// TestMatchingGolden pins Table 1's matching row — n=512, m=4096, seed 7 — to
// the matching produced when phase 1's peel sorted its live endpoints four
// times an iteration. A maximal matching has many valid answers, so only
// the hash shows that one plan an iteration changes no edge.
func TestMatchingGolden(t *testing.T) {
	g := graph.ConnectedGNM(512, 4096, 7, false)
	res := checkMatchingRun(t, g, 7)
	h := fnv.New64a()
	fmt.Fprint(h, res.Edges)
	if len(res.Edges) != 248 || res.Phase1Iters != 2 || h.Sum64() != 0x3f9149da60cf2683 {
		t.Fatalf("matching of %d edges after %d peel iterations, hash %#x; want the golden 248 after 2, 0x3f9149da60cf2683",
			len(res.Edges), res.Phase1Iters, h.Sum64())
	}
}

func TestMISIterationsLogLogDelta(t *testing.T) {
	// Iterations must stay tiny and grow (at most) like log log Δ.
	sparse := graph.GNM(256, 512, 1)
	dense := graph.GNM(256, 8000, 2)
	rS := checkMISRun(t, sparse, 7)
	rD := checkMISRun(t, dense, 7)
	if rS.Iterations > 8 || rD.Iterations > 9 {
		t.Fatalf("too many iterations: sparse %d dense %d", rS.Iterations, rD.Iterations)
	}
}

func TestMISStarIncludesLeaves(t *testing.T) {
	res := checkMISRun(t, graph.Star(50), 3)
	if len(res.Set) < 2 {
		t.Fatalf("star MIS size %d (leaves should be independent)", len(res.Set))
	}
}

func checkColoringRun(t *testing.T, g *graph.Graph, seed uint64) *ColoringResult {
	t.Helper()
	c := newCluster(t, g.N, g.M(), seed)
	res, err := Coloring(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckColoring(g, res.Colors, res.MaxColor); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestColoringSmallDelta(t *testing.T) {
	// Δ ≤ polylog: each list holds most of the palette, so nearly every
	// edge is a conflict edge.
	checkColoringRun(t, graph.Cycles(90, 1, 3), 5)
	checkColoringRun(t, graph.Grid(9, 9), 5)
	checkColoringRun(t, graph.GNM(128, 400, 7), 5)
}

func TestColoringLargeDelta(t *testing.T) {
	// Δ far above the lists' 2 log n colours: the list-sampling path must
	// ship only the conflict edges, complete the list-coloring at the large
	// machine, and still be proper.
	g := graph.Complete(280, false, 2) // Δ = 279, lists of 17 colours
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Gamma: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Coloring(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckColoring(g, res.Colors, res.MaxColor); err != nil {
		t.Fatal(err)
	}
	if res.ConflictEdges == 0 {
		t.Fatal("list-sampling path did not engage (0 conflict edges on K_n)")
	}
}

// TestColoringGivesUpTyped: on a large machine of O(n log n) words
// (LogExpLarge 1) and m = 32n, every try's conflict edges outnumber what
// Coloring lets the large machine take, so it gives up after its retries
// with an error that wraps ErrRetriesExhausted.
func TestColoringGivesUpTyped(t *testing.T) {
	g := graph.GNM(256, 32*256, 7)
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 7, LogExpLarge: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Coloring(c, g)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want one wrapping ErrRetriesExhausted", err)
	}
}

func TestColoringUsesAtMostDeltaPlusOne(t *testing.T) {
	g := graph.GNM(128, 1000, 11)
	res := checkColoringRun(t, g, 7)
	if res.MaxColor != g.MaxDegree() {
		t.Fatalf("palette %d, want Δ=%d", res.MaxColor, g.MaxDegree())
	}
}

func TestTwoVsOneCycle(t *testing.T) {
	for parts := 1; parts <= 2; parts++ {
		g := graph.Cycles(128, parts, uint64(parts)+3)
		c := newCluster(t, g.N, g.M(), 5)
		res, err := TwoVsOneCycle(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != parts {
			t.Fatalf("got %d cycles, want %d", res.Cycles, parts)
		}
		// The headline: O(1) rounds.
		if res.Stats.Rounds > 5 {
			t.Fatalf("2-vs-1 cycle used %d rounds", res.Stats.Rounds)
		}
	}
	// Reject non-cycle inputs.
	c := newCluster(t, 10, 5, 1)
	if _, err := TwoVsOneCycle(c, graph.Path(10)); err == nil {
		t.Fatal("path accepted as cycle instance")
	}
}

func TestAPSPOracle(t *testing.T) {
	g := graph.ConnectedGNM(96, 700, 3, false)
	c := newCluster(t, g.N, g.M(), 7)
	oracle, err := BuildAPSPOracle(c, g)
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Adj()
	for _, src := range []int{0, 13, 47} {
		exact := graph.BFSDist(adj, src)
		for v := 0; v < g.N; v += 7 {
			est := oracle.Dist(src, v)
			if exact[v] == math.MaxInt {
				if est != math.MaxInt64 {
					t.Fatalf("unreachable pair got estimate %d", est)
				}
				continue
			}
			if est < int64(exact[v]) {
				t.Fatalf("oracle below true distance: %d < %d", est, exact[v])
			}
			if exact[v] > 0 && est > int64(oracle.Stretch)*int64(exact[v]) {
				t.Fatalf("stretch violated: est %d exact %d stretch %d", est, exact[v], oracle.Stretch)
			}
		}
	}
}
