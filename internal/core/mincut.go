package core

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/unionfind"
)

// MinCutResult is the output of the minimum-cut algorithms.
type MinCutResult struct {
	Value  int64
	Trials int
	Stats  Stats
}

// MinCutUnweighted computes the exact minimum cut of an unweighted graph
// w.h.p. (Theorem C.3, via the 2-out contraction of Ghaffari-Nowicki-Thorup
// [32]): every vertex samples two incident edges, the resulting components
// are contracted, a random 1/(2δ)-rate edge sampling contracts further, and
// the surviving O(n)-edge multigraph is shipped to the large machine, which
// solves it exactly and compares against the singleton cuts. The trial is
// amplified O(log n) times (sequentially; DESIGN.md substitution 2).
func MinCutUnweighted(c *mpc.Cluster, g *graph.Graph) (*MinCutResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("MinCutUnweighted")
	}
	sp := c.Span("mincut")
	n := g.N
	res := &MinCutResult{Value: math.MaxInt64}
	defer func() { res.Stats = statsOf(sp.End()) }()
	if len(g.Edges) == 0 {
		if n > 1 {
			res.Value = 0 // disconnected (or single vertex: no cut)
		}
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	// Every trial aggregates and disseminates over the same endpoints: one
	// plan serves them all.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts)
	if err != nil {
		return nil, err
	}

	// Singleton cuts: the vertex degrees.
	degAtLarge, err := degreesAtLarge(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	if len(degAtLarge) < n {
		// Isolated vertex: cut 0.
		res.Value = 0
		return res, nil
	}
	for _, d := range degAtLarge {
		if d < res.Value {
			res.Value = d
		}
	}

	trials := 2*int(math.Ceil(math.Log2(float64(n)+2))) + 4
	capEdges := int64(c.LargeCap() / (4 * prims.EdgeWords))
	for trial := 0; trial < trials; trial++ {
		res.Trials++
		val, ok, err := minCutTrial(c, edges, plan, slots, n, capEdges)
		if err != nil {
			return nil, err
		}
		if ok && val < res.Value {
			res.Value = val
		}
	}
	return res, nil
}

// twoOutVal carries the two independently-ranked minimum incident edges of a
// vertex (the vertex's 2-out sample).
type twoOutVal struct {
	R1, R2 uint64
	E1, E2 graph.Edge
}

const twoOutWords = 8

func minCutTrial(c *mpc.Cluster, edges [][]graph.Edge, plan *prims.Plan, slots [][]int32, n int, capEdges int64) (int64, bool, error) {
	kk := c.K()
	// 2-out sampling via two independent min-rank aggregations in one pass.
	items := make([][]prims.KV[twoOutVal], kk)
	c.Each(func(i int) {
		rng := c.Rand(i)
		for _, e := range edges[i] {
			for _, v := range [2]int{e.U, e.V} {
				items[i] = append(items[i], prims.KV[twoOutVal]{
					K: int64(v),
					V: twoOutVal{R1: rng.Uint64(), R2: rng.Uint64(), E1: e, E2: e},
				})
			}
		}
	})
	combine := func(a, b twoOutVal) twoOutVal {
		out := a
		if b.R1 < out.R1 {
			out.R1, out.E1 = b.R1, b.E1
		}
		if b.R2 < out.R2 {
			out.R2, out.E2 = b.R2, b.E2
		}
		return out
	}
	roots, err := prims.PlanCombine(c, plan, items, twoOutWords, combine)
	if err != nil {
		return 0, false, err
	}
	atLarge, err := prims.GatherMap(c, roots, func(twoOutVal) int { return twoOutWords })
	if err != nil {
		return 0, false, err
	}
	// Contract the 2-out components on the large machine.
	dsu := unionfind.New(n)
	keys := make([]int64, 0, len(atLarge))
	for v := range atLarge {
		keys = append(keys, v)
	}
	prims.SortInts(keys)
	for _, v := range keys {
		to := atLarge[v]
		dsu.Union(int(v), to.E1.Other(int(v)))
		dsu.Union(int(v), to.E2.Other(int(v)))
	}
	labels := make(map[int64]int64, n)
	for v := 0; v < n; v++ {
		labels[int64(v)] = int64(dsu.Find(v))
	}
	lab, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(labels), 1)
	if err != nil {
		return 0, false, err
	}
	// Relabel, drop internal edges, compute the contracted min degree δ.
	contracted := make([][]graph.Edge, kk)
	cdegItems := make([][]prims.KV[int64], kk)
	c.Each(func(i int) {
		for j := range edges[i] {
			u, _ := lab.Slot(i, int(slots[i][2*j]))
			v, _ := lab.Slot(i, int(slots[i][2*j+1]))
			if u == v {
				continue
			}
			ce := graph.Edge{U: int(u), V: int(v), W: 1}
			contracted[i] = append(contracted[i], ce)
			cdegItems[i] = append(cdegItems[i],
				prims.KV[int64]{K: u, V: 1},
				prims.KV[int64]{K: v, V: 1})
		}
	})
	_, cdeg, err := prims.AggregateByKey(c, cdegItems, 1,
		func(a, b int64) int64 { return a + b }, true)
	if err != nil {
		return 0, false, err
	}
	if len(cdeg) == 0 {
		// Fully contracted: the 2-out subgraph was spanning; no non-trivial
		// candidate from this trial.
		return 0, false, nil
	}
	delta := int64(math.MaxInt64)
	for _, d := range cdeg {
		if d < delta {
			delta = d
		}
	}
	if delta < 1 {
		delta = 1
	}
	// Random-sampling contraction with p = 1/(2δ).
	p := 1 / (2 * float64(delta))
	ps, err := prims.BroadcastValue(c, p, 1)
	if err != nil {
		return 0, false, err
	}
	sampled := make([][]prims.KV[bool], kk)
	c.Each(func(i int) {
		rng := c.Rand(i)
		for _, e := range contracted[i] {
			if rng.Float64() < ps[i] {
				sampled[i] = append(sampled[i], prims.KV[bool]{K: pairKey(e.U, e.V, n), V: true})
			}
		}
	})
	_, sampledPairs, err := prims.AggregateByKey(c, sampled, 1,
		func(a, b bool) bool { return a || b }, true)
	if err != nil {
		return 0, false, err
	}
	spKeys := make([]int64, 0, len(sampledPairs))
	for key := range sampledPairs {
		spKeys = append(spKeys, key)
	}
	prims.SortInts(spKeys)
	for _, key := range spKeys {
		dsu.Union(int(key/int64(n)), int(key%int64(n)))
	}
	labels2 := make(map[int64]int64, n)
	for v := 0; v < n; v++ {
		labels2[int64(v)] = int64(dsu.Find(v))
	}
	lab2, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(labels2), 1)
	if err != nil {
		return 0, false, err
	}
	final := make([][]graph.Edge, kk)
	c.Each(func(i int) {
		for j := range edges[i] {
			u, _ := lab2.Slot(i, int(slots[i][2*j]))
			v, _ := lab2.Slot(i, int(slots[i][2*j+1]))
			if u != v {
				final[i] = append(final[i], graph.Edge{U: int(u), V: int(v), W: 1})
			}
		}
	})
	cnt, err := prims.SumToLarge(c, prims.Counts(final))
	if err != nil {
		return 0, false, err
	}
	if cnt > capEdges {
		return 0, false, nil // unlucky trial (sampling too dense)
	}
	multi, err := prims.GatherToLarge(c, final, prims.EdgeWords)
	if err != nil {
		return 0, false, err
	}
	if len(multi) == 0 {
		if dsu.Count() > 1 {
			return 0, true, nil // disconnected graph
		}
		return 0, false, nil
	}
	// Exact min cut of the contracted multigraph on the large machine.
	val := stoerWagnerMulti(n, multi)
	return val, true, nil
}

// stoerWagnerMulti runs Stoer-Wagner on a multigraph given by (possibly
// repeated, sparse-id) unit edges, relabeling ids densely first.
func stoerWagnerMulti(n int, edges []graph.Edge) int64 {
	ids := make(map[int]int)
	for _, e := range edges {
		if _, ok := ids[e.U]; !ok {
			ids[e.U] = len(ids)
		}
		if _, ok := ids[e.V]; !ok {
			ids[e.V] = len(ids)
		}
	}
	dense := make([]graph.Edge, len(edges))
	for i, e := range edges {
		dense[i] = graph.Edge{U: ids[e.U], V: ids[e.V], W: e.W}
	}
	// StoerWagner accumulates parallel edges by weight addition.
	return graph.StoerWagner(&graph.Graph{N: len(ids), Edges: dense, Weighted: true})
}

// ApproxMinCut estimates the minimum cut of a weighted graph within (1±ε)
// w.h.p. (Theorem C.4): Karger-style skeletons at geometric cut guesses —
// each weighted edge contributes Binomial(w, q) unit edges at sampling rate
// q = Θ(log n/(ε²·λ̂)) — are shipped to the large machine, solved exactly,
// and rescaled; the first guess whose skeleton cut is large enough to
// concentrate is returned (see DESIGN.md substitution 3).
func ApproxMinCut(c *mpc.Cluster, g *graph.Graph, eps float64) (*MinCutResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("ApproxMinCut")
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: eps must be in (0,1)")
	}
	sp := c.Span("approx-mincut")
	n := g.N
	res := &MinCutResult{Value: math.MaxInt64}
	defer func() { res.Stats = statsOf(sp.End()) }()
	if len(g.Edges) == 0 {
		if n > 1 {
			res.Value = 0
		}
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	// Weighted degrees = singleton cut upper bound.
	wdeg, err := degreesAtLarge(c, nil, edges, func(e graph.Edge) int64 { return e.W })
	if err != nil {
		return nil, err
	}
	if len(wdeg) < n {
		res.Value = 0 // isolated vertex
		return res, nil
	}
	upper := int64(math.MaxInt64)
	for _, d := range wdeg {
		if d < upper {
			upper = d
		}
	}
	res.Value = upper

	logn := math.Log(float64(n) + 2)
	threshold := 3 * logn / (eps * eps) // skeleton cut must exceed this to concentrate
	capEdges := int64(c.LargeCap() / (4 * prims.EdgeWords))
	lambda := float64(upper)
	for guess := 0; lambda >= 0.5; guess++ {
		res.Trials++
		q := 3 * logn / (eps * eps * lambda)
		if q > 1 {
			q = 1
		}
		qs, err := prims.BroadcastValue(c, q, 1)
		if err != nil {
			return nil, err
		}
		skeleton := make([][]graph.Edge, kk)
		c.Each(func(i int) {
			rng := c.Rand(i)
			for _, e := range edges[i] {
				cnt := int64(0)
				if qs[i] >= 1 {
					cnt = e.W
				} else {
					// Binomial(w, q): exact loop for small weights, normal
					// approximation for large ones.
					if e.W <= 256 {
						for x := int64(0); x < e.W; x++ {
							if rng.Float64() < qs[i] {
								cnt++
							}
						}
					} else {
						mean := float64(e.W) * qs[i]
						sd := math.Sqrt(mean * (1 - qs[i]))
						cnt = int64(math.Round(mean + sd*rng.NormFloat64()))
						if cnt < 0 {
							cnt = 0
						}
						if cnt > e.W {
							cnt = e.W
						}
					}
				}
				if cnt > 0 {
					skeleton[i] = append(skeleton[i], graph.Edge{U: e.U, V: e.V, W: cnt})
				}
			}
		})
		total, err := prims.SumToLarge(c, prims.Counts(skeleton))
		if err != nil {
			return nil, err
		}
		if total > capEdges {
			lambda /= 2
			continue // guess too small: skeleton too dense; refine downward
		}
		sk, err := prims.GatherToLarge(c, skeleton, prims.EdgeWords)
		if err != nil {
			return nil, err
		}
		var cut float64
		if len(sk) == 0 {
			cut = 0
		} else {
			cut = float64(stoerWagnerMulti(n, sk))
		}
		if q >= 1 {
			// Exact: the skeleton is the full graph.
			if int64(cut) < res.Value {
				res.Value = int64(cut)
			}
			break
		}
		if cut >= threshold {
			est := int64(math.Round(cut / q))
			if est < res.Value {
				res.Value = est
			}
			break
		}
		if cut == 0 && lambda <= 1 {
			res.Value = 0
			break
		}
		lambda /= 2
	}
	return res, nil
}
