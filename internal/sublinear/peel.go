// Package sublinear implements the sublinear-MPC baseline algorithms used
// for the Table 1 comparison (the "Sublinear MPC" column): they run on a
// cluster with NO large machine (mpc.Config.NoLarge) and exhibit the round
// complexities the paper contrasts against — Θ(log n) Borůvka MST and
// random-mate connectivity, Θ(log n) Luby MIS, and mirror-matching peeling
// whose round count tracks log Δ.
//
// The peeling matching primitive is shared with the heterogeneous algorithm
// of §5 (Phase 1 runs it on the low-degree induced subgraph, handing down
// its plan of the edges' endpoints for the first iteration), which is what
// makes the paper's d-vs-Δ separation directly observable (experiment E7);
// see DESIGN.md substitution 1.
package sublinear

import (
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
)

// PeelResult is the outcome of the mirror-matching peeling loop.
type PeelResult struct {
	Matched    [][]graph.Edge // matching edges, per machine
	Live       [][]graph.Edge // remaining edges with both endpoints unmatched
	Iterations int
	Remaining  int64
	Stats      mpc.Stats // communication metrics of the peeling run
}

// rankVal is the per-vertex aggregation value: the minimum (rank, edge) of
// the live edges incident to the vertex.
type rankVal struct {
	Rank   uint64
	EU, EV int32
}

// RankValWords is a rankVal's width: the widest value the peel carries
// over a plan, so a plan handed to PeelMatching is built at least this wide.
const RankValWords = 3

func lessRank(a, b rankVal) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.EU != b.EU {
		return a.EU < b.EU
	}
	return a.EV < b.EV
}

// PeelMatching runs mirror-matching peeling on the distributed edge set:
// each iteration every live edge draws a random rank; an edge enters the
// matching iff it holds the minimum rank at BOTH endpoints; endpoints of
// matched edges die and their edges are dropped. The loop stops when the
// number of live edges is at most stopRemaining (use 0 for a maximal
// matching). Each iteration is O(1) rounds over one plan of its live
// endpoints; the iteration count is O(log Δ') w.h.p. where Δ' is the max
// degree of the input edges.
//
// plan, when not nil, is the caller's plan of a superset of the edges'
// endpoints, built for values of at least RankValWords words, and
// slots[i][2j] and slots[i][2j+1] are the slots of edges[i][j]'s endpoints
// in it: the first iteration runs over that plan, and only later iterations
// plan their live endpoints. A key of the plan no edge touches gets no value,
// so it is never answered (DESIGN.md §1). A narrower plan, or one without
// some edge's endpoint on the edge's machine, is refused with an error
// wrapping prims.ErrUnplanned. With plan nil every iteration plans its own.
//
// Works on clusters with or without a large machine (the baseline regime
// uses machine 0 as coordinator).
func PeelMatching(c *mpc.Cluster, edges [][]graph.Edge, plan *prims.Plan, slots [][]int32, stopRemaining int64) (*PeelResult, error) {
	sp := c.Span("peel")
	k := c.K()
	live := make([][]graph.Edge, k)
	for i := 0; i < k && i < len(edges); i++ {
		live[i] = append([]graph.Edge(nil), edges[i]...)
	}
	matched := make([][]graph.Edge, k)
	res := &PeelResult{}
	defer func() { res.Stats = sp.End().Model() }()

	total := int64(0)
	for i := range live {
		total += int64(len(live[i]))
	}
	maxIters := 4*int(math.Ceil(math.Log2(float64(total)+2))) + 12

	// The iterations' combine items reuse one list a machine each:
	// PlanCombine copies what it is given before it returns.
	items, deadItems := make([][]prims.KV[rankVal], k), make([][]prims.KV[bool], k)
	for iter := 0; ; iter++ {
		remaining, err := prims.SumAll(c, prims.Counts(live))
		if err != nil {
			return nil, err
		}
		res.Remaining = remaining
		if remaining <= stopRemaining {
			break
		}
		if iter >= maxIters {
			return nil, fmt.Errorf("sublinear: peeling failed to converge after %d iterations (%d live)", iter, remaining)
		}
		res.Iterations++

		// Draw ranks and aggregate the per-vertex minimum.
		ranks := make([][]uint64, k)
		c.Each(func(i int) {
			rng := c.Rand(i)
			ranks[i] = make([]uint64, len(live[i]))
			items[i] = slices.Grow(items[i][:0], 2*len(live[i]))
			for j, e := range live[i] {
				r := rng.Uint64()
				ranks[i][j] = r
				rv := rankVal{Rank: r, EU: int32(e.U), EV: int32(e.V)}
				items[i] = append(items[i],
					prims.KV[rankVal]{K: int64(e.U), V: rv},
					prims.KV[rankVal]{K: int64(e.V), V: rv})
			}
		})
		// Both aggregations and disseminations of the iteration are over the
		// live endpoints: one plan serves all four. The first iteration's
		// is the caller's, if it handed one down.
		if plan == nil {
			var verts [][]int64
			verts, slots = prims.DistinctSlots(prims.Endpoints(live))
			if plan, err = prims.NewPlan(c, verts, RankValWords); err != nil {
				return nil, err
			}
		}
		minRoots, err := prims.PlanCombine(c, plan, items, RankValWords,
			func(a, b rankVal) rankVal {
				if lessRank(b, a) {
					return b
				}
				return a
			})
		if err != nil {
			return nil, err
		}
		mins, err := prims.PlanBroadcast(c, plan, minRoots, nil, RankValWords)
		if err != nil {
			return nil, err
		}

		// An edge is matched iff it is the minimum at both endpoints.
		c.Each(func(i int) {
			deadItems[i] = deadItems[i][:0]
			for j, e := range live[i] {
				rv := rankVal{Rank: ranks[i][j], EU: int32(e.U), EV: int32(e.V)}
				mu, okU := mins.Slot(i, int(slots[i][2*j]))
				mv, okV := mins.Slot(i, int(slots[i][2*j+1]))
				if okU && okV && mu == rv && mv == rv {
					matched[i] = append(matched[i], e)
					deadItems[i] = append(deadItems[i],
						prims.KV[bool]{K: int64(e.U), V: true},
						prims.KV[bool]{K: int64(e.V), V: true})
				}
			}
		})
		// A dead flag is presence alone: its value is always true, so a
		// partial and an answer ship their key alone.
		deadRoots, err := prims.PlanCombine(c, plan, deadItems, 0, func(a, b bool) bool { return a || b })
		if err != nil {
			return nil, err
		}
		dead, err := prims.PlanBroadcast(c, plan, deadRoots, nil, 0)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out := live[i][:0]
			for j, e := range live[i] {
				du, _ := dead.Slot(i, int(slots[i][2*j]))
				dv, _ := dead.Slot(i, int(slots[i][2*j+1]))
				if !du && !dv {
					out = append(out, e)
				}
			}
			live[i] = out
		})
		plan = nil // the live endpoints have changed
	}
	res.Matched = matched
	res.Live = live
	return res, nil
}

// MaximalMatching is the sublinear-regime baseline: peel to full maximality
// with no large machine involved. The returned stats show Θ(log Δ)
// iterations of O(1) rounds each.
func MaximalMatching(c *mpc.Cluster, g *graph.Graph) ([]graph.Edge, *PeelResult, error) {
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, nil, err
	}
	res, err := PeelMatching(c, edges, nil, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	return prims.Flatten(res.Matched), res, nil
}
