package core

import (
	"errors"
	"math"
	"math/bits"
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
	beefy.LargeCost = 1.0 / 32
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

// slotFold is the σ-selection value the pick replaced, kept as the
// reference TestSpannerSigmaPickMatchesSlots holds the pick to: the OR of
// the neighbours' B and, for each level, the smallest-(Rank, Nbr) neighbour
// whose B has that level, with its edge.
type slotFold struct {
	OrB   uint64
	Slots []foldSlot
}

type foldSlot struct {
	Rank   uint64
	Nbr    int32
	OU, OV int32
	W      int64
}

// foldItem is key u's item for neighbour v, whose B is bv, over edge e.
func foldItem(levels int, v int32, bv uint64, r uint64, e graph.Edge) slotFold {
	f := slotFold{OrB: bv, Slots: make([]foldSlot, levels)}
	for lvl := range f.Slots {
		f.Slots[lvl].Nbr = -1
		if bv&(1<<lvl) != 0 {
			f.Slots[lvl] = foldSlot{Rank: r, Nbr: v, OU: int32(e.U), OV: int32(e.V), W: e.W}
		}
	}
	return f
}

func foldCombine(a, b slotFold) slotFold {
	out := slotFold{OrB: a.OrB | b.OrB, Slots: slices.Clone(a.Slots)}
	for s, sb := range b.Slots {
		sa := out.Slots[s]
		if sa.Nbr < 0 || (sb.Nbr >= 0 && (sb.Rank < sa.Rank || (sb.Rank == sa.Rank && sb.Nbr < sa.Nbr))) {
			out.Slots[s] = sb
		}
	}
	return out
}

// foldSigma is the large machine's choice from a slot fold: i_v is the top
// level of own | OrB, σ_v is v if own has it, else the neighbour in that
// level's slot.
func foldSigma(v int64, own uint64, f slotFold) (iv int, sigma int64, star graph.Edge, ok bool) {
	iv = 63 - bits.LeadingZeros64(own|f.OrB)
	if own&(1<<iv) != 0 {
		return iv, v, graph.Edge{}, false
	}
	sl := f.Slots[iv]
	return iv, int64(sl.Nbr), graph.NewEdge(int(sl.OU), int(sl.OV), sl.W), true
}

// treeFold combines xs[lo:hi] over a binary tree whose split points are a
// function of (lo, hi, salt), so two folds with one salt share their shape.
func treeFold[T any](xs []T, lo, hi int, salt uint64, f func(a, b T) T) T {
	if hi-lo == 1 {
		return xs[lo]
	}
	mid := lo + 1 + int(xrand.Split(salt, uint64(lo)<<32|uint64(hi))%uint64(hi-lo-1))
	return f(treeFold(xs, lo, mid, salt, f), treeFold(xs, mid, hi, salt, f))
}

// TestSpannerSigmaPickMatchesSlots: on random B sets and neighbour lists,
// combined over random trees with ties in rank and repeated neighbours,
// the 4-word pick gives every vertex the (i_v, σ_v, star edge) the per-level
// slot fold gives. The pick is exact because no neighbour's top level is
// above T = p.Top, so a neighbour has level T in its B exactly when T is its
// top: that holds whether or not B is downward closed, and the test draws
// both kinds. Downward closure is what the level vertex sets rely on, and
// checkNested refuses a B without it by a *bSetError.
func TestSpannerSigmaPickMatchesSlots(t *testing.T) {
	rng := xrand.New(62)
	randomB := func(levels int, nested bool) uint64 {
		if nested {
			return 1<<(rng.IntN(levels)+1) - 1
		}
		return 1 + rng.Uint64N(1<<levels-1)
	}
	var nonNested int
	for trial := 0; trial < 4000; trial++ {
		levels := 1 + rng.IntN(10)
		nested := trial%2 == 0
		const u = 1000
		own := randomB(levels, nested)
		deg := 1 + rng.IntN(12)
		folds, picks := make([]slotFold, deg), make([]sigPick, deg)
		for j := range folds {
			v := int32(rng.IntN(40)) // repeats: parallel edges, with their own weights
			bv := randomB(levels, nested)
			if bv&(bv+1) != 0 {
				nonNested++
			}
			r := rng.Uint64N(4) // ties in rank
			e := graph.NewEdge(u, int(v), 1+rng.Int64N(3))
			folds[j] = foldItem(levels, v, bv, r, e)
			picks[j] = sigPick{Top: int32(bits.Len64(bv) - 1), Nbr: v, Rank: r, W: e.W}
		}
		salt := uint64(trial)
		fi, fs, fe, fok := foldSigma(u, own, treeFold(folds, 0, deg, salt, foldCombine))
		pi, ps, pe, pok := pickSigma(u, own, treeFold(picks, 0, deg, salt, higherPick))
		if fi != pi || fs != ps || fe != pe || fok != pok {
			t.Fatalf("trial %d (nested %v): own %#b, the slot fold gives (i %d, σ %d, star %v %v), the pick (i %d, σ %d, star %v %v)",
				trial, nested, own, fi, fs, fe, fok, pi, ps, pe, pok)
		}
	}
	if nonNested == 0 {
		t.Fatal("no B set off the downward-closed premise was drawn")
	}

	for b := uint64(1); b < 1<<8; b++ {
		err := checkNested(7, b)
		var be *bSetError
		if nested := b&(b+1) == 0; nested != (err == nil) || !nested && (!errors.As(err, &be) || be.B != b || be.V != 7) {
			t.Errorf("B %#b: checkNested returned %v", b, err)
		}
	}
}
