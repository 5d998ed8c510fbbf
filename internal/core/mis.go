package core

import (
	"cmp"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// MISResult is the output of the Appendix C.4 algorithm.
type MISResult struct {
	Set        []int
	Iterations int // rank-prefix iterations; O(log log Δ) by [26]
	Stats      Stats
}

// MIS computes a maximal independent set in O(log log Δ) iterations of O(1)
// rounds each (Theorem C.6, after Ghaffari et al. [26]): a shared random
// vertex priority simulates the random permutation; iteration i ships to the
// large machine every still-alive edge whose endpoints both have priority at
// most τ_i = Δ^{-(3/4)^i} (Õ(n) edges w.h.p.), the large machine extends the
// greedy-by-priority MIS, and dominated vertices are announced back through
// aggregation and dissemination.
func MIS(c *mpc.Cluster, g *graph.Graph) (*MISResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("MIS")
	}
	sp := c.Span("mis")
	n := g.N
	res := &MISResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()
	// Every aggregation and dissemination below is over the endpoints of
	// the machines' edges: one plan serves them all.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts)
	if err != nil {
		return nil, err
	}

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	prio := xrand.NewHash(xrand.Split(seed, 1), 6)
	pr := func(v int) float64 { return prio.Eval01(uint64(v) + 1) }

	// Δ via aggregation (needed for the prefix schedule).
	degAtLarge, err := degreesAtLarge(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	maxDeg := float64(1)
	for _, d := range degAtLarge {
		if float64(d) > maxDeg {
			maxDeg = float64(d)
		}
	}

	// Prefix thresholds τ_i = Δ^{-(3/4)^i}, ending with τ = 1.
	var taus []float64
	alpha := 0.75
	for e := 1.0; ; e *= alpha {
		tau := math.Pow(maxDeg, -e)
		taus = append(taus, tau)
		if math.Pow(maxDeg, e) <= 2 { // Δ^{α^i} ≤ 2 ⇒ prefix ≈ everything
			break
		}
		if len(taus) > 64 {
			break
		}
	}
	taus = append(taus, 1.0)
	tauList, err := prims.BroadcastValue(c, taus, len(taus))
	if err != nil {
		return nil, err
	}

	// Large-machine state: alive flags, accumulated alive edges, the MIS.
	aliveLarge := make([]bool, n)
	for v := range aliveLarge {
		aliveLarge[v] = true
	}
	inMIS := make([]bool, n)
	processed := make([]bool, n) // vertices already decided by greedy
	accAdj := make(map[int][]int)
	// Machines' view of dead vertices, by slot.
	dead := make([][]bool, kk)
	for i := range dead {
		dead[i] = make([]bool, len(verts[i]))
	}

	for it, tau := range taus {
		// Early exit: with no alive-alive edges left, the alive vertices are
		// pairwise non-adjacent and all join the MIS.
		aliveCounts := make([]int64, kk)
		c.Each(func(i int) {
			for j := range edges[i] {
				if !dead[i][slots[i][2*j]] && !dead[i][slots[i][2*j+1]] {
					aliveCounts[i]++
				}
			}
		})
		aliveEdges, err := prims.SumAll(c, aliveCounts)
		if err != nil {
			return nil, err
		}
		if aliveEdges == 0 {
			break
		}
		res.Iterations++
		// Ship alive prefix edges.
		batch := make([][]graph.Edge, kk)
		c.Each(func(i int) {
			for j, e := range edges[i] {
				if dead[i][slots[i][2*j]] || dead[i][slots[i][2*j+1]] {
					continue
				}
				if pr(e.U) <= tauList[i][it] && pr(e.V) <= tauList[i][it] {
					batch[i] = append(batch[i], e)
				}
			}
		})
		got, err := prims.GatherToLarge(c, batch, prims.EdgeWords)
		if err != nil {
			return nil, err
		}
		for _, e := range got {
			accAdj[e.U] = append(accAdj[e.U], e.V)
			accAdj[e.V] = append(accAdj[e.V], e.U)
		}
		// Greedy by priority over the alive prefix.
		prefix := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if aliveLarge[v] && !processed[v] && pr(v) <= tau {
				prefix = append(prefix, v)
			}
		}
		slices.SortFunc(prefix, func(a, b int) int {
			if c := cmp.Compare(pr(a), pr(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		var joined []prims.KV[bool]
		for _, v := range prefix {
			if !aliveLarge[v] {
				continue
			}
			inMIS[v] = true
			processed[v] = true
			for _, u := range accAdj[v] {
				if aliveLarge[u] && u != v {
					aliveLarge[u] = false
					processed[u] = true
				}
			}
			joined = append(joined, prims.KV[bool]{K: int64(v), V: true})
			aliveLarge[v] = false // MIS vertices also leave the graph
		}

		// Announce this iteration's MIS additions — an earlier one's
		// neighbours died in the iteration it joined; machines derive local
		// domination and aggregate it so every holder of a dominated vertex's
		// edges learns.
		joinedAt, err := prims.PlanBroadcast(c, plan, nil, joined, 1)
		if err != nil {
			return nil, err
		}
		domItems := make([][]prims.KV[bool], kk)
		c.Each(func(i int) {
			for j, e := range edges[i] {
				ju, _ := joinedAt.Slot(i, int(slots[i][2*j]))
				jv, _ := joinedAt.Slot(i, int(slots[i][2*j+1]))
				if ju {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.V), V: true})
				}
				if jv {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.U), V: true})
				}
				if ju {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.U), V: true})
				}
				if jv {
					domItems[i] = append(domItems[i], prims.KV[bool]{K: int64(e.V), V: true})
				}
			}
		})
		domRoots, err := prims.PlanCombine(c, plan, domItems, 1, func(a, b bool) bool { return a || b })
		if err != nil {
			return nil, err
		}
		domLarge, err := prims.GatherMap(c, domRoots, func(bool) int { return 1 })
		if err != nil {
			return nil, err
		}
		gotDead, err := prims.PlanBroadcast(c, plan, domRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			for s := range dead[i] {
				if d, _ := gotDead.Slot(i, s); d {
					dead[i][s] = true
				}
			}
		})
		// The large machine also learns which vertices died via edges it
		// never saw (a dominated vertex with all its edges off-prefix).
		for v := range domLarge {
			if domLarge[v] && aliveLarge[v] {
				aliveLarge[v] = false
				processed[v] = true
			}
		}
	}

	// Any vertices still alive have no alive edges left: they join the MIS
	// (this also covers the early-exit path and isolated vertices).
	set := make([]int, 0, n/2)
	for v := 0; v < n; v++ {
		if inMIS[v] || aliveLarge[v] {
			set = append(set, v)
		}
	}
	res.Set = set
	return res, nil
}
