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
	Stats       mpc.Stats
}

// rankedEdge is a directed copy of an edge in Phase 2's arrangement: Src is
// the vertex it is filed under and Rank its shared random rank. Both only
// sort it; a collected edge ships as E alone.
type rankedEdge struct {
	Src  int32
	Rank uint64
	E    graph.Edge
}

// edge is what a collected rankedEdge ships, prims.EdgeWords.
func (re rankedEdge) edge() graph.Edge { return re.E }

// MaximalMatching computes a maximal matching in the heterogeneous MPC
// model by the three-phase algorithm of §5 (Theorem 5.1):
//
//	Phase 1: peel the subgraph induced by the low-degree vertices
//	         (deg ≤ d², d = average degree) until the leftover fits the
//	         large machine, then complete M1 there — the round count
//	         depends on d, not on Δ;
//	Phase 2: every high-degree vertex sends 2d·log n random incident edges
//	         to the large machine, which greedily extends the matching —
//	         only the high vertices are flagged, arranged and collected,
//	         and a run whose summed count of them reads 0 skips the phase;
//	Phase 3: all edges with both endpoints still unmatched (≤ 2n w.h.p.,
//	         Lemma 5.4) are shipped and the matching is completed.
func MaximalMatching(c *mpc.Cluster, g *graph.Graph) (*MatchingResult, error) {
	if !c.HasLarge() {
		// The sublinear baseline is sublinear.MaximalMatching.
		return nil, errNeedsLarge("MaximalMatching")
	}
	sp := c.Span("matching")
	res := &MatchingResult{}
	defer func() { res.Stats = sp.End().Model() }()
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
	// endpoints that the peel's first iteration and phase 3's dissemination
	// reuse: it is built at the peel's value width.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts, sublinear.RankValWords)
	if err != nil {
		return nil, err
	}
	degs, err := degreeRoots(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	d := int64(math.Ceil(2 * float64(m) / float64(n)))
	if d < 2 {
		d = 2
	}
	lowCap := d * d
	// Each root flags its own high vertices (deg > d²), and how many there
	// are rides a sum every machine learns. With none every edge is low, and
	// no flag, arrangement or collection runs; otherwise only the high
	// vertices are flagged, and a machine reads a missing flag as low. A flag
	// is presence alone, so its answer ships its key alone.
	highRoots := make([][]prims.KV[bool], kk)
	c.Each(func(i int) {
		for _, kv := range degs[i] {
			if kv.V > lowCap {
				highRoots[i] = append(highRoots[i], prims.KV[bool]{K: kv.K, V: true})
			}
		}
	})
	count := c.Span("count")
	highs, err := prims.SumAll(c, prims.Counts(highRoots))
	count.End()
	if err != nil {
		return nil, err
	}
	var isHigh prims.Answers[bool] // answers nothing: every vertex is low
	if highs > 0 {
		if isHigh, err = prims.PlanBroadcast(c, plan, highRoots, nil, 0); err != nil {
			return nil, err
		}
	}
	high := func(i, j int) (u, v bool) {
		u, _ = isHigh.Slot(i, int(slots[i][2*j]))
		v, _ = isHigh.Slot(i, int(slots[i][2*j+1]))
		return u, v
	}

	// --- Phase 1: peel the low-degree induced subgraph ---
	// Its first iteration runs over the plan: the low edges' endpoints are a
	// subset of its keys, and a high vertex no low edge touches is never
	// answered.
	lowEdges, lowSlots := edges, slots
	if highs > 0 {
		lowEdges, lowSlots = make([][]graph.Edge, kk), make([][]int32, kk)
		c.Each(func(i int) {
			for j, e := range edges[i] {
				if hu, hv := high(i, j); !hu && !hv {
					lowEdges[i] = append(lowEdges[i], e)
					lowSlots[i] = append(lowSlots[i], slots[i][2*j], slots[i][2*j+1])
				}
			}
		})
	}
	peel, err := sublinear.PeelMatching(c, lowEdges, plan, lowSlots, int64(n))
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
	if highs > 0 {
		logn := int64(math.Ceil(math.Log2(float64(n) + 2)))
		add, err := matchHigh(c, edges, high, n, int(2*d*logn), matchedAt)
		if err != nil {
			return nil, err
		}
		matching = append(matching, add...)
	}

	// --- Phase 3: ship all edges with both endpoints unmatched ---
	// A matched flag is presence alone, a 0-word value, as the high flags.
	matchedVals := make([]prims.KV[bool], 0, len(matching)*2)
	for v, ok := range matchedAt {
		if ok {
			matchedVals = append(matchedVals, prims.KV[bool]{K: int64(v), V: true})
		}
	}
	isMatched, err := prims.PlanBroadcast(c, plan, nil, matchedVals, 0)
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

// matchHigh is Phase 2 over the high vertices alone: each sends budget
// random incident edges to the large machine, which extends the matching
// greedily, visiting them in ascending order. high(i, j) says which
// endpoints of machine i's edge j are high. Each edge is copied once per
// high endpoint with a shared random rank, so the arrangement sorted by
// (vertex, rank) makes "the budget lowest-ranked incident edges" exactly a
// uniform random sample (§5 Phase 2), and its keys are the high vertices.
// Returns the edges added; matchedAt is updated in place.
func matchHigh(c *mpc.Cluster, edges [][]graph.Edge, high func(i, j int) (u, v bool), n, budget int, matchedAt []bool) ([]graph.Edge, error) {
	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	rankHash := xrand.NewHash(seed, 4)
	directed := make([][]rankedEdge, c.K())
	c.Each(func(i int) {
		for j, e := range edges[i] {
			hu, hv := high(i, j)
			if !hu && !hv {
				continue
			}
			r := rankHash.Eval(uint64(e.Key(n)))
			if hu {
				directed[i] = append(directed[i], rankedEdge{Src: int32(e.U), Rank: r, E: e})
			}
			if hv {
				directed[i] = append(directed[i], rankedEdge{Src: int32(e.V), Rank: r, E: e})
			}
		}
	})
	arr, err := prims.Arrange(c, directed, func(re rankedEdge) prims.SortKey {
		return prims.SortKey{A: int64(re.Src), B: int64(re.Rank >> 1), C: re.E.Key(n)}
	}, prims.EdgeWords+2)
	if err != nil {
		return nil, err
	}
	collected, err := prims.CollectBudget(c, arr, func(int) int { return budget }, rankedEdge.edge, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	rebuilt("matching/reply", arr, collected)
	var add []graph.Edge
	for p, k := range arr.Keys {
		v := int(k)
		if matchedAt[v] {
			continue
		}
		for _, e := range collected[p] {
			if u := e.Other(v); !matchedAt[u] {
				add = append(add, e)
				matchedAt[v] = true
				matchedAt[u] = true
				break
			}
		}
	}
	return add, nil
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
	defer func() { res.Stats = sp.End().Model() }()
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

		// Disseminate this iteration's matched vertices, 0-word presence
		// flags, and filter. An earlier iteration's have no live edge left,
		// so nobody requests them (DESIGN.md §1).
		matchedVals := make([]prims.KV[bool], 0, 2*len(add))
		for _, e := range add {
			matchedVals = append(matchedVals, prims.KV[bool]{K: int64(e.U), V: true})
			if e.V != e.U {
				matchedVals = append(matchedVals, prims.KV[bool]{K: int64(e.V), V: true})
			}
		}
		prims.SortKVsByKey(matchedVals) // the edges of a matching share no endpoint
		needs, slots := prims.DistinctSlots(prims.Endpoints(live))
		isMatched, err := prims.DisseminateFromLarge(c, needs, matchedVals, 0)
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
