package sublinear

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// MISResult is the output of the Luby baseline.
type MISResult struct {
	Set    []int
	Rounds int // Luby rounds (Θ(log n)), each O(1) communication rounds
	Stats  mpc.Stats
}

// MIS is the sublinear-regime baseline: Luby's algorithm with no large
// machine — Θ(log n) rounds (Table 1 contrasts the heterogeneous
// O(log log Δ) against the sublinear Õ(√log Δ + ...) [33]; Luby is the
// classical simple baseline with the same non-constant behaviour).
//
// Each round every live vertex draws a shared-seed priority; strict local
// minima join the MIS; MIS vertices and their neighbors die.
func MIS(c *mpc.Cluster, g *graph.Graph) (*MISResult, error) {
	sp := c.Span("baseline-mis")
	n := g.N
	res := &MISResult{}
	defer func() { res.Stats = sp.End() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	prioHash := xrand.NewHash(xrand.Split(seed, 5), 6)
	prio := func(round, v int) uint64 {
		return prioHash.Eval(uint64(round)*uint64(n+1) + uint64(v))
	}

	// Every round aggregates and disseminates over the same endpoints: one
	// plan serves them all.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts)
	if err != nil {
		return nil, err
	}
	// Per-machine vertex state by slot: 0 live, 1 in MIS, 2 dead (dominated).
	state := make([][]byte, kk)
	for i := range state {
		state[i] = make([]byte, len(verts[i]))
	}
	maxRounds := 6*int(math.Ceil(math.Log2(float64(n)+2))) + 12

	for round := 0; ; round++ {
		liveCounts := make([]int64, kk)
		c.Each(func(i int) {
			for j := range edges[i] {
				if state[i][slots[i][2*j]] == 0 && state[i][slots[i][2*j+1]] == 0 {
					liveCounts[i]++
				}
			}
		})
		live, err := prims.SumAll(c, liveCounts)
		if err != nil {
			return nil, err
		}
		if live == 0 {
			break
		}
		if round >= maxRounds {
			return nil, fmt.Errorf("sublinear: Luby failed to converge")
		}
		res.Rounds++

		// Per live vertex: minimum live-neighbor priority.
		items := make([][]prims.KV[uint64], kk)
		c.Each(func(i int) {
			for j, e := range edges[i] {
				if state[i][slots[i][2*j]] != 0 || state[i][slots[i][2*j+1]] != 0 {
					continue
				}
				items[i] = append(items[i],
					prims.KV[uint64]{K: int64(e.U), V: prio(round, e.V)},
					prims.KV[uint64]{K: int64(e.V), V: prio(round, e.U)})
			}
		})
		minRoots, err := prims.PlanCombine(c, plan, items, 1, func(a, b uint64) uint64 { return min(a, b) })
		if err != nil {
			return nil, err
		}
		minNbrs, err := prims.PlanBroadcast(c, plan, minRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		// A live vertex with priority strictly below all live neighbors
		// joins the MIS; every machine holding it reaches the same verdict.
		// Then domination spreads by one more aggregation round.
		domItems := make([][]prims.KV[bool], kk)
		c.Each(func(i int) {
			// A verdict reads its vertex's pre-round state alone, and the
			// edges announce this round's verdicts, not earlier rounds' joins.
			verdict := make([]bool, len(state[i]))
			for s, v := range verts[i] {
				if state[i][s] != 0 {
					continue
				}
				if minNbr, ok := minNbrs.Slot(i, s); !ok || prio(round, int(v)) < minNbr {
					verdict[s], state[i][s] = true, 1
				}
			}
			for j, e := range edges[i] {
				if verdict[slots[i][2*j]] {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.V), V: true})
				}
				if verdict[slots[i][2*j+1]] {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.U), V: true})
				}
			}
		})
		domRoots, err := prims.PlanCombine(c, plan, domItems, 1, func(a, b bool) bool { return a || b })
		if err != nil {
			return nil, err
		}
		dominated, err := prims.PlanBroadcast(c, plan, domRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			for s := range state[i] {
				if dom, _ := dominated.Slot(i, s); state[i][s] == 0 && dom {
					state[i][s] = 2
				}
			}
		})
	}

	// Assemble the MIS (validation view): MIS-state vertices, still-alive
	// vertices (all their neighbors died dominated, so they are independent
	// of the MIS and must join for maximality), plus isolated vertices.
	inMIS, hasEdges := make([]bool, n), make([]bool, n)
	for i := range state {
		for s, v := range verts[i] {
			hasEdges[v] = true
			inMIS[v] = inMIS[v] || state[i][s] != 2
		}
	}
	out := make([]int, 0, n)
	for v := range inMIS {
		if inMIS[v] || !hasEdges[v] {
			out = append(out, v)
		}
	}
	res.Set = out
	return res, nil
}
