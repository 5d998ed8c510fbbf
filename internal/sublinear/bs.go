package sublinear

import (
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// SpannerResult is the output of the distributed Baswana-Sen baseline.
type SpannerResult struct {
	Edges  []graph.Edge
	Levels int // = k: each level costs O(1) rounds, so Θ(k) rounds total
	Stats  mpc.Stats
}

// Spanner is the sublinear-regime spanner baseline: the Baswana-Sen
// algorithm run level by level with no large machine — k levels of O(1)
// rounds each, i.e. Θ(k) rounds (the paper's Table 1 cites [14]'s O(log k)
// as the best known; plain Baswana-Sen is the classical simple baseline the
// heterogeneous O(1) rounds is contrasted against in experiment E5b).
//
// Center survival is decided by a shared-seed hash (locally computable);
// per-vertex cluster assignments are maintained consistently on every
// machine holding the vertex via aggregation + dissemination.
func Spanner(c *mpc.Cluster, g *graph.Graph, k int) (*SpannerResult, error) {
	sp := c.Span("baseline-spanner")
	if k < 1 {
		k = 1
	}
	n := g.N
	res := &SpannerResult{Levels: k}
	defer func() { res.Stats = sp.End() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()
	// Every level's re-cluster aggregation and dissemination is over the
	// endpoints of the machines' edges: one plan serves them all.
	plan, err := prims.NewPlan(c, prims.EndpointNeeds(edges))
	if err != nil {
		return nil, err
	}

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	centerHash := xrand.NewHash(xrand.Split(seed, 3), 6)
	survives := func(level, center int) bool {
		p := 1 / math.Pow(float64(n), 1/float64(k))
		return centerHash.Eval01(uint64(level)*uint64(n+1)+uint64(center)) < p
	}

	// Per-machine cluster state: center[v] for the vertices the machine
	// holds (consistent across machines), -1 = unclustered, and the level at
	// which v was removed (for lines 16-18).
	center := make([]map[int64]int64, kk)
	removedAt := make([]map[int64]int, kk)
	prevCenter := make([]map[int64]int64, kk)
	c.Each(func(i int) {
		center[i] = make(map[int64]int64)
		removedAt[i] = make(map[int64]int)
		prevCenter[i] = make(map[int64]int64)
		for _, e := range edges[i] {
			center[i][int64(e.U)] = int64(e.U)
			center[i][int64(e.V)] = int64(e.V)
		}
	})

	spannerParts := make([][]graph.Edge, kk)

	type reclusterVal struct {
		U   int32 // smallest eligible neighbor
		Ctr int64 // that neighbor's surviving center
		OU  int32
		OV  int32
		W   int64
	}
	for level := 1; level <= k; level++ {
		// Snapshot c_{level-1} for every vertex (including -1 for already
		// removed ones) before any update.
		c.Each(func(i int) {
			for v, cv := range center[i] {
				prevCenter[i][v] = cv
			}
		})
		// Each still-clustered vertex whose center dies looks for a neighbor
		// whose center survives; the smallest such neighbor wins (matching
		// core's deterministic choice). One aggregation + one dissemination —
		// except at the last level, where C_k = ∅: nobody re-clusters, every
		// vertex still clustered is removed, and there is nothing to send.
		newCenters := make([]map[int64]reclusterVal, kk)
		if level < k {
			items := make([][]prims.KV[reclusterVal], kk)
			c.Each(func(i int) {
				for _, e := range edges[i] {
					for dir := 0; dir < 2; dir++ {
						v, u := e.U, e.V
						if dir == 1 {
							v, u = e.V, e.U
						}
						cv, cu := center[i][int64(v)], center[i][int64(u)]
						if cv < 0 || cu < 0 {
							continue
						}
						if survives(level, int(cv)) {
							continue // v keeps its cluster; no candidate needed
						}
						if !survives(level, int(cu)) {
							continue // u's center dies too: not a re-cluster target
						}
						items[i] = append(items[i], prims.KV[reclusterVal]{
							K: int64(v),
							V: reclusterVal{U: int32(u), Ctr: cu, OU: int32(e.U), OV: int32(e.V), W: e.W},
						})
					}
				}
			})
			minRoots, err := prims.PlanCombine(c, plan, items, 5,
				func(a, b reclusterVal) reclusterVal {
					if b.U < a.U {
						return b
					}
					return a
				})
			if err != nil {
				return nil, err
			}
			// The aggregation root records the spanner edge for re-clustered v.
			c.Each(func(i int) {
				for _, root := range minRoots[i] {
					rv := root.V
					spannerParts[i] = append(spannerParts[i], graph.NewEdge(int(rv.OU), int(rv.OV), rv.W))
				}
			})
			if newCenters, err = prims.PlanBroadcast(c, plan, minRoots, nil, 5); err != nil {
				return nil, err
			}
		}
		// Update cluster state consistently everywhere.
		c.Each(func(i int) {
			for v, cv := range center[i] {
				if cv < 0 {
					continue
				}
				if level < k && survives(level, int(cv)) {
					continue // center survives
				}
				if rv, ok := newCenters[i][v]; ok {
					center[i][v] = rv.Ctr
					continue
				}
				center[i][v] = -1
				removedAt[i][v] = level
			}
		})
		// Lines 16-18 for this level: removed vertices add one edge per
		// adjacent previous-level cluster (aggregation keyed (v, cluster)).
		type remVal struct {
			U      int32
			OU, OV int32
			W      int64
		}
		remItems := make([][]prims.KV[remVal], kk)
		c.Each(func(i int) {
			for _, e := range edges[i] {
				for dir := 0; dir < 2; dir++ {
					v, u := e.U, e.V
					if dir == 1 {
						v, u = e.V, e.U
					}
					if removedAt[i][int64(v)] != level {
						continue
					}
					cu := prevCenter[i][int64(u)]
					cv := prevCenter[i][int64(v)]
					if _, had := prevCenter[i][int64(u)]; !had {
						continue
					}
					if cu < 0 || cu == cv {
						continue
					}
					key := int64(v)*int64(n) + cu
					remItems[i] = append(remItems[i], prims.KV[remVal]{
						K: key,
						V: remVal{U: int32(u), OU: int32(e.U), OV: int32(e.V), W: e.W},
					})
				}
			}
		})
		remRoots, _, err := prims.AggregateByKey(c, remItems, 4,
			func(a, b remVal) remVal {
				if b.U < a.U {
					return b
				}
				return a
			}, false)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			for _, root := range remRoots[i] {
				rv := root.V
				spannerParts[i] = append(spannerParts[i], graph.NewEdge(int(rv.OU), int(rv.OV), rv.W))
			}
		})
	}

	// Validation view: flatten and dedupe.
	all := prims.Flatten(spannerParts)
	seen := make(map[int64]bool, len(all))
	out := all[:0]
	for _, e := range all {
		key := e.Key(n)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	slices.SortFunc(out, graph.CompareEndpoints)
	res.Edges = out
	return res, nil
}
