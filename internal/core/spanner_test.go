package core

import (
	"math"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

func toClusterEdges(g *graph.Graph) ([]int, []clusterEdge) {
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	ces := make([]clusterEdge, 0, g.M())
	for _, e := range g.Edges {
		ces = append(ces, clusterEdge{U: e.U, V: e.V, Orig: e})
	}
	return verts, ces
}

func TestBaswanaSenLocalStretchAndSize(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := graph.ConnectedGNM(120, 1800, uint64(k), false)
		verts, ces := toClusterEdges(g)
		h := baswanaSenLocal(verts, ces, k, xrand.New(uint64(k)+7))
		hg := graph.New(g.N, h, false)
		if err := graph.CheckSpanner(g, hg, 2*k-1, 6, 3); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Size must be well below the input for dense graphs.
		bound := 8 * float64(k) * math.Pow(float64(g.N), 1+1/float64(k))
		if float64(len(h)) > bound {
			t.Fatalf("k=%d: spanner size %d > %f", k, len(h), bound)
		}
	}
}

func TestGreedySpannerStretchAndGirthSize(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := graph.ConnectedGNM(100, 1500, uint64(k)+5, false)
		verts, ces := toClusterEdges(g)
		h := greedySpanner(verts, ces, k)
		hg := graph.New(g.N, h, false)
		if err := graph.CheckSpanner(g, hg, 2*k-1, 6, 3); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Greedy is the optimal-size construction: O(n^{1+1/k}).
		bound := 4 * math.Pow(float64(g.N), 1+1/float64(k))
		if float64(len(h)) > bound {
			t.Fatalf("k=%d: greedy size %d > %f", k, len(h), bound)
		}
	}
}

func TestModifiedBaswanaSenLemma43(t *testing.T) {
	// Lemma 4.3: stretch stays 2k-1; expected size O(k n^{1+1/k} / p).
	k := 3
	g := graph.ConnectedGNM(100, 2000, 11, false)
	verts, ces := toClusterEdges(g)
	full := baswanaSenLocal(verts, ces, k, xrand.New(42))
	sizes := map[float64]int{}
	for _, p := range []float64{1.0, 0.5, 0.25} {
		total := 0
		const trials = 3
		for trial := 0; trial < trials; trial++ {
			h := modifiedBaswanaSenLocal(verts, ces, k, p, xrand.New(uint64(trial)*31+uint64(p*100)))
			hg := graph.New(g.N, h, false)
			if err := graph.CheckSpanner(g, hg, 2*k-1, 4, 5); err != nil {
				t.Fatalf("p=%f: %v", p, err)
			}
			total += len(h)
		}
		sizes[p] = total / trials
	}
	// Figure 1 behaviour: smaller p ⇒ larger over-approximation. Allow noise
	// but the ordering must hold between extremes.
	if sizes[0.25] < sizes[1.0] {
		t.Fatalf("sizes not increasing as p decreases: %v (full BS %d)", sizes, len(full))
	}
}

func TestSpannerDistributed(t *testing.T) {
	for _, tc := range []struct {
		n, m, k int
	}{
		{96, 800, 2},
		{128, 1500, 3},
		{160, 600, 4},
	} {
		g := graph.ConnectedGNM(tc.n, tc.m, uint64(tc.n), false)
		c := newCluster(t, g.N, g.M(), 9)
		res, err := Spanner(c, g, tc.k)
		if err != nil {
			t.Fatalf("n=%d m=%d k=%d: %v", tc.n, tc.m, tc.k, err)
		}
		h := graph.New(g.N, res.Edges, false)
		if err := graph.CheckSpanner(g, h, res.Stretch, 6, 3); err != nil {
			t.Fatalf("n=%d m=%d k=%d: %v", tc.n, tc.m, tc.k, err)
		}
		if len(res.Edges) >= g.M() && g.M() > 4*g.N {
			t.Fatalf("spanner did not sparsify: %d of %d edges", len(res.Edges), g.M())
		}
	}
}

func TestSpannerSizeScaling(t *testing.T) {
	// Theorem 4.1: size O(n^{1+1/k}). Check with a generous constant.
	n, m := 192, 3000
	g := graph.ConnectedGNM(n, m, 77, false)
	for _, k := range []int{2, 3, 5} {
		c := newCluster(t, n, m, uint64(k))
		res, err := Spanner(c, g, k)
		if err != nil {
			t.Fatal(err)
		}
		bound := 12 * float64(k) * math.Pow(float64(n), 1+1/float64(k))
		if float64(len(res.Edges)) > bound {
			t.Fatalf("k=%d: size %d > bound %f", k, len(res.Edges), bound)
		}
	}
}

func TestSpannerConstantRounds(t *testing.T) {
	// Theorem 4.1 headline: O(1) rounds. The round count must not grow with
	// n (compare two sizes) and must stay under a fixed constant.
	small := graph.ConnectedGNM(96, 768, 5, false)
	big := graph.ConnectedGNM(384, 3072, 5, false)
	cS := newCluster(t, small.N, small.M(), 3)
	rS, err := Spanner(cS, small, 3)
	if err != nil {
		t.Fatal(err)
	}
	cB := newCluster(t, big.N, big.M(), 3)
	rB, err := Spanner(cB, big, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rB.Stats.Rounds > rS.Stats.Rounds+30 {
		t.Fatalf("rounds grew with n: %d -> %d", rS.Stats.Rounds, rB.Stats.Rounds)
	}
	if rB.Stats.Rounds > 150 {
		t.Fatalf("spanner used %d rounds", rB.Stats.Rounds)
	}
}

func TestSpannerOnSparseAndTinyGraphs(t *testing.T) {
	// Path: spanner must keep connectivity (it is the only path).
	p := graph.Path(60)
	c := newCluster(t, p.N, p.M(), 3)
	res, err := Spanner(c, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != p.M() {
		t.Fatalf("path spanner dropped edges: %d of %d", len(res.Edges), p.M())
	}
	// Star: hub degree n-1.
	s := graph.Star(50)
	c2 := newCluster(t, s.N, s.M(), 3)
	res2, err := Spanner(c2, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	hg := graph.New(s.N, res2.Edges, false)
	if err := graph.CheckSpanner(s, hg, res2.Stretch, 4, 9); err != nil {
		t.Fatal(err)
	}
	// Empty graph.
	e := graph.New(10, nil, false)
	c3 := newCluster(t, 10, 0, 3)
	res3, err := Spanner(c3, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Edges) != 0 {
		t.Fatal("phantom spanner edges")
	}
}

func TestSpannerWeighted(t *testing.T) {
	g := graph.ConnectedGNM(100, 1200, 13, true)
	// Spread weights over several scales.
	for i := range g.Edges {
		g.Edges[i].W = g.Edges[i].W%64 + 1
	}
	c := newCluster(t, g.N, g.M(), 7)
	res, err := SpannerWeighted(c, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.New(g.N, res.Edges, true)
	if err := graph.CheckSpanner(g, h, res.Stretch, 5, 3); err != nil {
		t.Fatal(err)
	}
}

// TestSpannerIndependentOfBuckets: the sampled levels' coins are hashed
// from the broadcast seed and the edge, so a spanner is a function of the
// graph and the seed, not of where a Sort's buckets put each cluster edge.
// At K = 256 a beefy large machine coordinates its Sorts alone while the
// default cluster's go through 16 leaders, so their buckets differ; the
// spanners must not.
func TestSpannerIndependentOfBuckets(t *testing.T) {
	const k = 256
	g := graph.ConnectedGNM(1024, 65536, 7, false)
	run := func(prof *mpc.Profile) *SpannerResult {
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: k, Seed: 7, Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Spanner(c, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	beefy := mpc.UniformProfile(k)
	beefy.LargeSpeed, beefy.LargeBandwidth = 64, 64
	a, b := run(nil), run(beefy)
	if a.SampledLevels == 0 {
		t.Fatal("no sampled level: the coins under test are never drawn")
	}
	if !slices.Equal(a.Edges, b.Edges) {
		t.Fatalf("the default cluster's spanner has %d edges, the beefy coordinator's %d: the output follows the buckets", len(a.Edges), len(b.Edges))
	}
}

func TestSpannerDeterministic(t *testing.T) {
	g := graph.ConnectedGNM(100, 900, 3, false)
	run := func() []graph.Edge {
		c := newCluster(t, g.N, g.M(), 55)
		res, err := Spanner(c, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.Edges
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}
