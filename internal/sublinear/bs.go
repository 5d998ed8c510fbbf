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

// reclusterWords is the accounted size of a re-cluster candidate: the
// neighbor, its center and the edge.
const reclusterWords = 5

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
	defer func() { res.Stats = sp.End().Model() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()
	// Every level's re-cluster aggregation and dissemination is over the
	// endpoints of the machines' edges: one plan serves them all.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts, reclusterWords)
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

	// Per-machine cluster state by slot: the center of each vertex the
	// machine holds (consistent across machines), -1 = unclustered, and the
	// level at which it was removed (for lines 16-18; 0 = never).
	center := make([][]int64, kk)
	removedAt := make([][]int, kk)
	prevCenter := make([][]int64, kk)
	c.Each(func(i int) {
		center[i] = slices.Clone(verts[i])
		removedAt[i] = make([]int, len(verts[i]))
		prevCenter[i] = make([]int64, len(verts[i]))
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
		c.Each(func(i int) { copy(prevCenter[i], center[i]) })
		// Each still-clustered vertex whose center dies looks for a neighbor
		// whose center survives; the smallest such neighbor wins (matching
		// core's deterministic choice). One aggregation + one dissemination —
		// except at the last level, where C_k = ∅: nobody re-clusters, every
		// vertex still clustered is removed, and there is nothing to send.
		var newCenters prims.Answers[reclusterVal]
		if level < k {
			items := make([][]prims.KV[reclusterVal], kk)
			c.Each(func(i int) {
				for j, e := range edges[i] {
					for dir := 0; dir < 2; dir++ {
						v, u := e.U, e.V
						sv, su := slots[i][2*j+dir], slots[i][2*j+1-dir]
						if dir == 1 {
							v, u = e.V, e.U
						}
						cv, cu := center[i][sv], center[i][su]
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
			minRoots, err := prims.PlanCombine(c, plan, items, reclusterWords,
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
			if newCenters, err = prims.PlanBroadcast(c, plan, minRoots, nil, reclusterWords); err != nil {
				return nil, err
			}
		}
		// Update cluster state consistently everywhere.
		c.Each(func(i int) {
			for s, cv := range center[i] {
				if cv < 0 {
					continue
				}
				if level < k && survives(level, int(cv)) {
					continue // center survives
				}
				if rv, ok := newCenters.Slot(i, s); ok {
					center[i][s] = rv.Ctr
					continue
				}
				center[i][s] = -1
				removedAt[i][s] = level
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
			for j, e := range edges[i] {
				for dir := 0; dir < 2; dir++ {
					v, u := e.U, e.V
					sv, su := slots[i][2*j+dir], slots[i][2*j+1-dir]
					if dir == 1 {
						v, u = e.V, e.U
					}
					if removedAt[i][sv] != level {
						continue
					}
					cu, cv := prevCenter[i][su], prevCenter[i][sv]
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
		remRoots, err := prims.AggregateByKey(c, remItems, 4,
			func(a, b remVal) remVal {
				if b.U < a.U {
					return b
				}
				return a
			})
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
	res.Edges = graph.DedupEdges(prims.Flatten(spannerParts))
	return res, nil
}
