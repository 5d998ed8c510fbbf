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
	"errors"
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

// cEdgeWords is the width the large machine holds a rebuilt contracted
// edge at, the unit of MST's capacity budgets (capBudget, phaseBudget). It
// is not a wire width: no round ships all five fields — an arc ships 4, a
// dedup root's value 3 beside its key, and a gathered edge 3 (shipped).
const cEdgeWords = 5

// Ends returns the contracted endpoints, U then V.
func (e cEdge) Ends() (int, int) { return e.U, e.V }

// orig returns the original graph edge.
func (e cEdge) orig() graph.Edge { return graph.NewEdge(e.OU, e.OV, e.W) }

// shipped is what the edge sends the large machine, prims.EdgeWords: its
// original edge (OU, OV, W) as held. The large machine rebuilds (U, V) from
// its union-find (contracted, reply).
func (e cEdge) shipped() graph.Edge { return graph.Edge{U: e.OU, V: e.OV, W: e.W} }

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

// gatherShipped sends every machine's records to the large machine as
// ship(record), shipWords each — the fields it reads and cannot rebuild —
// carved from one array, and returns them in (machine, local index) order.
func gatherShipped[T, S any](c *mpc.Cluster, data [][]T, ship func(T) S, shipWords int) ([]S, error) {
	starts := make([]int, len(data)+1)
	for i, rs := range data {
		starts[i+1] = starts[i] + len(rs)
	}
	flat, out := make([]S, starts[len(data)]), make([][]S, len(data))
	c.Each(func(i int) {
		out[i] = flat[starts[i]:starts[i+1]:starts[i+1]]
		for j, r := range data[i] {
			out[i][j] = ship(r)
		}
	})
	return prims.GatherToLarge(c, out, shipWords)
}

// onRebuild, nil outside tests, is handed every batch of records the large
// machine rebuilt from what it received beside the records the small
// machines held, under the name of the gather: a test asserts they agree.
var onRebuild func(site string, held, rebuilt any)

// rebuilt reports a batch of rebuilt records to onRebuild, if set.
func rebuilt(site string, held, got any) {
	if onRebuild != nil {
		onRebuild(site, held, got)
	}
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

// degreesAtLarge brings every non-isolated vertex's degree to the large
// machine (Claim 2), by vertex: two (endpoint, weight(e)) items per edge,
// summed per vertex — over p, the plan of the edges' endpoints, when the
// caller has one, else by AggregateByKey. unitWeight counts edges; mincut's
// weighted variant sums e.W.
func degreesAtLarge(c *mpc.Cluster, p *prims.Plan, edges [][]graph.Edge, weight func(graph.Edge) int64) ([]prims.KV[int64], error) {
	roots, err := degreeRoots(c, p, edges, weight)
	if err != nil {
		return nil, err
	}
	return prims.GatherKVs(c, roots, 1)
}

// degreeRoots is degreesAtLarge without the gather: each vertex's degree
// stays at its root machine.
func degreeRoots(c *mpc.Cluster, p *prims.Plan, edges [][]graph.Edge, weight func(graph.Edge) int64) ([][]prims.KV[int64], error) {
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
		return prims.AggregateByKey(c, items, 1, add)
	}
	return prims.PlanCombine(c, p, items, 1, add)
}

// maxValue is the largest value of kvs, at least floor.
func maxValue(kvs []prims.KV[int64], floor int64) int64 {
	for _, kv := range kvs {
		floor = max(floor, kv.V)
	}
	return floor
}

// maxAll is the largest f(x) over every machine's held items, at least
// floor, learned by every machine: each machine folds its own items, and
// prims.MaxAll (two rounds) spreads the largest.
func maxAll[T any](c *mpc.Cluster, held [][]T, f func(T) int64, floor int64) (int64, error) {
	local := make([]int64, c.K())
	for i := range held {
		local[i] = floor
		for _, x := range held[i] {
			local[i] = max(local[i], f(x))
		}
	}
	return prims.MaxAll(c, local)
}

// maxEdgeWeight is the largest edge weight of g, at least 1, learned by
// every machine from the edges it is dealt: the weighted reductions' loops
// over weight classes and thresholds run as long as it says.
func maxEdgeWeight(c *mpc.Cluster, g *graph.Graph) (int64, error) {
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return 0, err
	}
	return maxAll(c, edges, func(e graph.Edge) int64 { return e.W }, 1)
}

func unitWeight(graph.Edge) int64 { return 1 }

// ErrRetriesExhausted is wrapped, with the step and its try count, when a
// randomized step gives up after its last try (Coloring's list path, MST's
// KKT sampling): a randomized failure, never a wrong answer.
var ErrRetriesExhausted = errors.New("randomized step exhausted its tries")

// errNeedsLarge is the unified "requires the large machine" failure: every
// large-requiring algorithm returns it wrapped with its name, so callers
// detect the condition with errors.Is(err, mpc.ErrNeedsLarge).
func errNeedsLarge(alg string) error {
	return fmt.Errorf("core: %s: %w", alg, mpc.ErrNeedsLarge)
}
