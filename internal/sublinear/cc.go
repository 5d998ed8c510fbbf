package sublinear

import (
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// CCResult is the output of the random-mate connectivity baseline.
type CCResult struct {
	Labels     []int // per-vertex component label (validation view)
	Components int
	Phases     int
	Stats      mpc.Stats
}

// Connectivity is the sublinear-regime baseline: random-mate label
// contraction with no large machine, Θ(log n) phases of O(1) rounds each
// (the quantity the paper's O(1)-round heterogeneous algorithm is compared
// against; the best known sublinear bound is O(log D + log log n) [11], also
// non-constant).
//
// Each phase, every current label flips a shared coin; a tail-labeled
// component adopts the smallest head-labeled neighbor label. Coins come from
// a broadcast shared seed, so they are locally computable everywhere: a
// phase plans only its machines' tail labels (prims.NewPlan), the only ones
// that can adopt, and aggregates and disseminates the adoptions over that
// one plan.
func Connectivity(c *mpc.Cluster, g *graph.Graph) (*CCResult, error) {
	sp := c.Span("baseline-cc")
	n := g.N
	res := &CCResult{}
	// Registered before the first fallible call so the span closes on every
	// path (the early-return leak hetlint's spanpair analyzer flags).
	defer func() { res.Stats = sp.End().Model() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	coinHash := xrand.NewHash(xrand.Split(seed, 1), 6)
	coin := func(phase, label int) bool { // true = head
		return coinHash.Eval(uint64(phase)*uint64(n+1)+uint64(label))&1 == 0
	}

	// Per-machine current label of every vertex it stores, by slot.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	labels := make([][]int64, kk)
	c.Each(func(i int) { labels[i] = slices.Clone(verts[i]) })

	maxPhases := 4*int(math.Ceil(math.Log2(float64(n)+2))) + 10
	// The phases' combine items reuse one list a machine: PlanCombine copies
	// what it is given before it returns.
	items := make([][]prims.KV[int64], kk)
	for phase := 0; ; phase++ {
		// Count live (inter-component) edges.
		liveCounts := make([]int64, kk)
		c.Each(func(i int) {
			for j := range edges[i] {
				if labels[i][slots[i][2*j]] != labels[i][slots[i][2*j+1]] {
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
		if phase >= maxPhases {
			return nil, fmt.Errorf("sublinear: connectivity failed to converge")
		}
		res.Phases++

		// Only a tail label can adopt, and every machine flips the coins
		// itself: the phase's one plan is of the tail labels each machine
		// holds, and its vertices of tail labels, in slot order, read their
		// labels' slots off tailSlots.
		tails := make([][]int64, kk)
		c.Each(func(i int) {
			tails[i] = make([]int64, 0, len(labels[i]))
			for _, l := range labels[i] {
				if !coin(phase, int(l)) {
					tails[i] = append(tails[i], l)
				}
			}
		})
		labelNeeds, tailSlots := prims.DistinctSlots(tails)
		plan, err := prims.NewPlan(c, labelNeeds, 1)
		if err != nil {
			return nil, err
		}
		// Tail labels adopt the smallest head neighbor label.
		c.Each(func(i int) {
			items[i] = items[i][:0]
			for j := range edges[i] {
				lu, lv := labels[i][slots[i][2*j]], labels[i][slots[i][2*j+1]]
				if lu == lv {
					continue
				}
				if !coin(phase, int(lu)) && coin(phase, int(lv)) {
					items[i] = append(items[i], prims.KV[int64]{K: lu, V: lv})
				}
				if !coin(phase, int(lv)) && coin(phase, int(lu)) {
					items[i] = append(items[i], prims.KV[int64]{K: lv, V: lu})
				}
			}
		})
		adoptRoots, err := prims.PlanCombine(c, plan, items, 1, func(a, b int64) int64 { return min(a, b) })
		if err != nil {
			return nil, err
		}
		adopted, err := prims.PlanBroadcast(c, plan, adoptRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			ts := tailSlots[i]
			for s, l := range labels[i] {
				if !coin(phase, int(l)) {
					if nl, ok := adopted.Slot(i, int(ts[0])); ok {
						labels[i][s] = nl
					}
					ts = ts[1:]
				}
			}
		})
	}

	// Validation view: assemble the global labels (outside the model).
	global := make([]int, n)
	for v := range global {
		global[v] = v
	}
	for i := range labels {
		for s, v := range verts[i] {
			global[v] = int(labels[i][s])
		}
	}
	// Normalize to smallest-member labels for comparison with references.
	// Walking v upward, smallest[l] is set (to v+1) at l's first member.
	smallest := make([]int, n)
	for v, l := range global {
		if smallest[l] == 0 {
			smallest[l] = v + 1
			res.Components++
		}
		global[v] = smallest[l] - 1
	}
	res.Labels = global
	return res, nil
}
