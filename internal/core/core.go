// Package core implements the paper's Heterogeneous MPC algorithms:
//
//   - MST in O(log log(m/n)) rounds (§3, Theorem 3.1), via doubly-exponential
//     Borůvka + KKT sampling + flow-labeling F-light filtering;
//   - O(k)-spanners of size O(n^{1+1/k}) in O(1) rounds (§4, Theorem 4.1),
//     via clustering graphs + modified Baswana-Sen, and the APSP
//     approximation of Corollary 4.2;
//   - maximal matching (§5, Theorem 5.1 and the filtering variant of
//     Theorem 5.5);
//   - the ported near-linear algorithms of Appendix C: connectivity and
//     (1+ε)-MST via sketches, exact and approximate minimum cut,
//     MIS in O(log log Δ), and (Δ+1)-coloring in O(1) rounds;
//   - the 2-vs-1-cycle problem from the introduction.
//
// Every algorithm runs entirely through the mpc simulator's Exchange rounds
// and the prims toolbox; outputs are validated against the exact reference
// algorithms in internal/graph by the package tests.
package core

import (
	"cmp"
	"fmt"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
)

// cEdge is an edge of the current contracted multigraph: (U, V) are
// contracted vertex ids, (OU, OV, W) identify the original edge it
// represents (§3: "together with each edge we also store the original graph
// edge"). The (W, OU, OV) triple is globally unique, giving the unique-weight
// tie-breaking the paper assumes.
type cEdge struct {
	U, V   int
	W      int64
	OU, OV int
}

const cEdgeWords = 5

// orig returns the original graph edge.
func (e cEdge) orig() graph.Edge { return graph.NewEdge(e.OU, e.OV, e.W) }

// lessByWeight orders contracted edges by unique weight.
func (e cEdge) lessByWeight(o cEdge) bool { return e.cmpByWeight(o) < 0 }

// cmpByWeight is the three-way unique-weight order on contracted edges.
func (e cEdge) cmpByWeight(o cEdge) int {
	if c := cmp.Compare(e.W, o.W); c != 0 {
		return c
	}
	if c := cmp.Compare(e.OU, o.OU); c != 0 {
		return c
	}
	return cmp.Compare(e.OV, o.OV)
}

// pairKey packs an unordered contracted vertex pair into an int64 key.
func pairKey(u, v, n int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)*int64(n) + int64(v)
}

// toCEdges converts distributed graph edges into contracted-edge state.
func toCEdges(data [][]graph.Edge) [][]cEdge {
	out := make([][]cEdge, len(data))
	for i := range data {
		out[i] = make([]cEdge, 0, len(data[i]))
		for _, e := range data[i] {
			out[i] = append(out[i], cEdge{U: e.U, V: e.V, W: e.W, OU: e.U, OV: e.V})
		}
	}
	return out
}

// distinctEndpoints returns the sorted distinct contracted endpoints of a
// machine's edges (the dissemination "needs" list) — prims.EndpointNeeds
// for contracted edges, deduplicated the same way (prims.DistinctInts).
func distinctEndpoints(edges []cEdge) []int64 {
	out := make([]int64, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, int64(e.U), int64(e.V))
	}
	return prims.DistinctInts(out)
}

// degreesAtLarge brings every non-isolated vertex's degree to the large
// machine (Claim 2): two (endpoint, weight(e)) items per edge, summed per
// vertex — over p, the plan of the edges' endpoints, when the caller has one,
// else by AggregateByKey. unitWeight counts edges; mincut's weighted variant
// sums e.W.
func degreesAtLarge(c *mpc.Cluster, p *prims.Plan, edges [][]graph.Edge, weight func(graph.Edge) int64) (map[int64]int64, error) {
	items := make([][]prims.KV[int64], c.K())
	c.Each(func(i int) {
		items[i] = make([]prims.KV[int64], 0, 2*len(edges[i]))
		for _, e := range edges[i] {
			w := weight(e)
			items[i] = append(items[i],
				prims.KV[int64]{K: int64(e.U), V: w},
				prims.KV[int64]{K: int64(e.V), V: w})
		}
	})
	add := func(a, b int64) int64 { return a + b }
	if p == nil {
		_, atLarge, err := prims.AggregateByKey(c, items, 1, add, true)
		return atLarge, err
	}
	roots, err := prims.PlanCombine(c, p, items, 1, add)
	if err != nil {
		return nil, err
	}
	return prims.GatherMap(c, roots, 1)
}

func unitWeight(graph.Edge) int64 { return 1 }

// Stats is the per-run metrics snapshot attached to every algorithm result.
type Stats struct {
	Rounds     int
	Messages   int64
	TotalWords int64
}

// statsOf converts a finished span's full model-stats delta (mpc.Span.End)
// into the compact per-run view attached to algorithm results.
func statsOf(d mpc.Stats) Stats {
	return Stats{Rounds: d.Rounds, Messages: d.Messages, TotalWords: d.TotalWords}
}

// errNeedsLarge is the unified "requires the large machine" failure: every
// large-requiring algorithm returns it wrapped with its name, so callers
// detect the condition with errors.Is(err, mpc.ErrNeedsLarge).
func errNeedsLarge(alg string) error {
	return fmt.Errorf("core: %s: %w", alg, mpc.ErrNeedsLarge)
}
