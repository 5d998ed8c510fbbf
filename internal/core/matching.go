package core

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sublinear"
	"hetmpc/internal/xrand"
)

// MatchingResult is the output of the §5 maximal-matching algorithms.
type MatchingResult struct {
	Edges       []graph.Edge // the maximal matching
	Phase1Iters int          // peeling iterations (grow with the average degree d)
	FilterIters int          // filtering iterations (Theorem 5.5 variant)
	Stats       Stats
}

// MaximalMatching computes a maximal matching in the heterogeneous MPC
// model by the three-phase algorithm of §5 (Theorem 5.1):
//
//	Phase 1: peel the subgraph induced by the low-degree vertices
//	         (deg ≤ d², d = average degree) until the leftover fits the
//	         large machine, then complete M1 there — the round count
//	         depends on d, not on Δ;
//	Phase 2: every high-degree vertex sends 2d·log n random incident edges
//	         to the large machine, which greedily extends the matching;
//	Phase 3: all edges with both endpoints still unmatched (≤ 2n w.h.p.,
//	         Lemma 5.4) are shipped and the matching is completed.
func MaximalMatching(c *mpc.Cluster, g *graph.Graph) (*MatchingResult, error) {
	if !c.HasLarge() {
		// The sublinear baseline is sublinear.MaximalMatching.
		return nil, errNeedsLarge("MaximalMatching")
	}
	sp := c.Span("matching")
	res := &MatchingResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	n := g.N
	m := len(g.Edges)
	if m == 0 {
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	// Degrees and the low/high threshold, over the one plan of the edges'
	// endpoints that phase 3's dissemination reuses.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts)
	if err != nil {
		return nil, err
	}
	degAtLarge, err := degreesAtLarge(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	degs, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(degAtLarge), 1)
	if err != nil {
		return nil, err
	}
	d := int64(math.Ceil(2 * float64(m) / float64(n)))
	if d < 2 {
		d = 2
	}
	lowCap := d * d

	// --- Phase 1: peel the low-degree induced subgraph ---
	lowEdges := make([][]graph.Edge, kk)
	c.Each(func(i int) {
		for j, e := range edges[i] {
			du, _ := degs.Slot(i, int(slots[i][2*j]))
			dv, _ := degs.Slot(i, int(slots[i][2*j+1]))
			if du <= lowCap && dv <= lowCap {
				lowEdges[i] = append(lowEdges[i], e)
			}
		}
	})
	peel, err := sublinear.PeelMatching(c, lowEdges, int64(n))
	if err != nil {
		return nil, err
	}
	res.Phase1Iters = peel.Iterations
	// Ship the partial matching and the leftover to the large machine and
	// complete M1 = maximal matching on the low-degree induced subgraph.
	m1Part, err := prims.GatherToLarge(c, peel.Matched, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	leftover, err := prims.GatherToLarge(c, peel.Live, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	matchedAt := make([]bool, n)
	matching := make([]graph.Edge, 0, n/2)
	for _, e := range m1Part {
		matching = append(matching, e)
		matchedAt[e.U] = true
		matchedAt[e.V] = true
	}
	sortEdgesStable(leftover)
	add, matchedAt := graph.GreedyMatching(n, leftover, matchedAt)
	matching = append(matching, add...)

	// --- Phase 2: high-degree vertices send 2d·log n random edges ---
	logn := int64(math.Ceil(math.Log2(float64(n) + 2)))
	budget := 2 * d * logn
	// Directed copies with a per-edge shared random rank: the arrangement
	// sorted by (vertex, rank) makes "the budget lowest-ranked incident
	// edges" exactly a uniform random sample (§5 Phase 2).
	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	rankHash := xrand.NewHash(seed, 4)
	type rankedEdge struct {
		Src  int32
		Rank uint64
		E    graph.Edge
	}
	directed := make([][]rankedEdge, kk)
	c.Each(func(i int) {
		directed[i] = make([]rankedEdge, 0, 2*len(edges[i]))
		for _, e := range edges[i] {
			r := rankHash.Eval(uint64(e.Key(n)))
			directed[i] = append(directed[i],
				rankedEdge{Src: int32(e.U), Rank: r, E: e},
				rankedEdge{Src: int32(e.V), Rank: r, E: e})
		}
	})
	arr, err := prims.Arrange(c, directed, func(re rankedEdge) prims.SortKey {
		return prims.SortKey{A: int64(re.Src), B: int64(re.Rank >> 1), C: re.E.Key(n)}
	}, prims.EdgeWords+2)
	if err != nil {
		return nil, err
	}
	collected, err := arr.CollectBudget(c, func(key int64) int {
		if degAtLarge[key] > lowCap {
			return int(budget)
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	// Large machine: greedy M2 over the high vertices in sorted order.
	highs := make([]int64, 0, len(degAtLarge))
	for v, dv := range degAtLarge {
		if dv > lowCap {
			highs = append(highs, v)
		}
	}
	prims.SortInts(highs)
	for _, v := range highs {
		if matchedAt[v] {
			continue
		}
		for _, re := range collected[v] {
			u := re.E.Other(int(v))
			if !matchedAt[u] {
				matching = append(matching, re.E)
				matchedAt[v] = true
				matchedAt[u] = true
				break
			}
		}
	}

	// --- Phase 3: ship all edges with both endpoints unmatched ---
	matchedVals := make(map[int64]bool, len(matching)*2)
	for v, ok := range matchedAt {
		if ok {
			matchedVals[int64(v)] = true
		}
	}
	isMatched, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(matchedVals), 1)
	if err != nil {
		return nil, err
	}
	residual := make([][]graph.Edge, kk)
	c.Each(func(i int) {
		for j, e := range edges[i] {
			mu, _ := isMatched.Slot(i, int(slots[i][2*j]))
			mv, _ := isMatched.Slot(i, int(slots[i][2*j+1]))
			if !mu && !mv {
				residual[i] = append(residual[i], e)
			}
		}
	})
	cnt, err := prims.SumToLarge(c, prims.Counts(residual))
	if err != nil {
		return nil, err
	}
	if cnt > int64(4*n) {
		return nil, fmt.Errorf("core: phase 3 residual %d exceeds 4n (Lemma 5.4 violated)", cnt)
	}
	rest, err := prims.GatherToLarge(c, residual, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	sortEdgesStable(rest)
	add, _ = graph.GreedyMatching(n, rest, matchedAt)
	matching = append(matching, add...)

	sortEdgesStable(matching)
	res.Edges = matching
	return res, nil
}

// MatchingFiltering is the Theorem 5.5 variant for a superlinear large
// machine (cluster configured with F = f > 0): the filtering method of
// Lattanzi et al. [44]. Each iteration samples the live edges at a rate that
// fits the large machine, matches the sample there greedily, and discards
// edges covered by the matching; O(1/f) iterations suffice.
func MatchingFiltering(c *mpc.Cluster, g *graph.Graph) (*MatchingResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("MatchingFiltering")
	}
	sp := c.Span("matching-filter")
	res := &MatchingResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	n := g.N
	if len(g.Edges) == 0 {
		return res, nil
	}
	live, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()
	// The semantic memory budget is n^{1+f} edges (Theorem 5.5); the
	// cluster's polylog slack exists for protocol overheads, not to inflate
	// the filtering budget, so the recursion bottoms out at n^{1+f}.
	capEdges := int64(math.Ceil(math.Pow(float64(n), 1+c.F())))
	if max := int64(c.LargeCap() / (4 * prims.EdgeWords)); capEdges > max {
		capEdges = max
	}
	matchedAt := make([]bool, n)
	var matching []graph.Edge
	maxIters := 4*int(math.Ceil(math.Log2(float64(len(g.Edges))+2))) + 8

	for iter := 0; ; iter++ {
		liveCnt, err := prims.SumAll(c, prims.Counts(live))
		if err != nil {
			return nil, err
		}
		if liveCnt <= capEdges {
			break
		}
		if iter >= maxIters {
			return nil, fmt.Errorf("core: filtering failed to converge (%d live)", liveCnt)
		}
		res.FilterIters++
		// SumAll left liveCnt on every machine and capEdges is a function of
		// n, F and LargeCap, so each machine computes the rate itself.
		p := float64(capEdges) / float64(liveCnt)
		sample := make([][]graph.Edge, kk)
		c.Each(func(i int) {
			rng := c.Rand(i)
			for _, e := range live[i] {
				if rng.Float64() < p {
					sample[i] = append(sample[i], e)
				}
			}
		})
		got, err := prims.GatherToLarge(c, sample, prims.EdgeWords)
		if err != nil {
			return nil, err
		}
		sortEdgesStable(got)
		add, _ := graph.GreedyMatching(n, got, matchedAt)
		matching = append(matching, add...)

		// Disseminate this iteration's matched vertices and filter. An
		// earlier iteration's have no live edge left, so nobody requests
		// them (DESIGN.md §1).
		matchedVals := make(map[int64]bool, 2*len(add))
		for _, e := range add {
			matchedVals[int64(e.U)], matchedVals[int64(e.V)] = true, true
		}
		needs, slots := prims.DistinctSlots(prims.Endpoints(live))
		isMatched, err := prims.DisseminateFromLarge(c, needs, matchedVals, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out := live[i][:0]
			for j, e := range live[i] {
				mu, _ := isMatched.Slot(i, int(slots[i][2*j]))
				mv, _ := isMatched.Slot(i, int(slots[i][2*j+1]))
				if !mu && !mv {
					out = append(out, e)
				}
			}
			live[i] = out
		})
	}
	rest, err := prims.GatherToLarge(c, live, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	sortEdgesStable(rest)
	add, _ := graph.GreedyMatching(n, rest, matchedAt)
	matching = append(matching, add...)
	sortEdgesStable(matching)
	res.Edges = matching
	return res, nil
}

// sortEdgesStable orders edges by (U, V, W) through the local-sort kernel
// (the key covers every field, so the order is total and stability is
// vacuous; the name records the original comparator's contract).
func sortEdgesStable(es []graph.Edge) {
	prims.SortLocal(es, func(e graph.Edge) prims.SortKey {
		return prims.SortKey{A: int64(e.U), B: int64(e.V), C: e.W}
	})
}
