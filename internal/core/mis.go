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
	Stats      mpc.Stats
}

// misReport is one machine's report in an MIS iteration's gather.
type misReport struct {
	alive int64
	edges []graph.Edge
	dom   []prims.KV[bool]
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
	defer func() { res.Stats = sp.End().Model() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()
	// Every aggregation and dissemination below is over the endpoints of
	// the machines' edges: one plan serves them all.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts, 1)
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
	maxDeg := float64(maxValue(degAtLarge, 1))

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
	accAdj := make([][]int, n)
	// Machines' view of dead vertices, by slot.
	dead := make([][]bool, kk)
	for i := range dead {
		dead[i] = make([]bool, len(verts[i]))
	}

	// The iterations' domination items reuse one list a machine: PlanCombine
	// copies what it is given before it returns.
	domItems := make([][]prims.KV[bool], kk)
	// domRoots is the previous iteration's combine: the dominated vertices at
	// their roots, which ride this iteration's gather to the large machine.
	var domRoots [][]prims.KV[bool]
	for it, tau := range taus {
		// One report a machine rides the prefix gather: its alive-edge count
		// (1 word), its alive prefix edges, and the dominated roots it holds
		// (their keys at prims.KeyRunWords: every value is true). A machine
		// with nothing to report stays silent, which reads as a count of 0.
		slab := make([]misReport, kk)
		reports := make([][]misReport, kk)
		c.Each(func(i int) {
			r := &slab[i]
			for j, e := range edges[i] {
				if dead[i][slots[i][2*j]] || dead[i][slots[i][2*j+1]] {
					continue
				}
				r.alive++
				if pr(e.U) <= tauList[i][it] && pr(e.V) <= tauList[i][it] {
					r.edges = append(r.edges, e)
				}
			}
			if domRoots != nil {
				r.dom = domRoots[i]
			}
			if r.alive > 0 || len(r.dom) > 0 {
				reports[i] = slab[i : i+1 : i+1]
			}
		})
		gather := c.Span("gather")
		got, err := prims.Gather(c, reports, func(rs []misReport) int {
			return 1 + len(rs[0].edges)*prims.EdgeWords + prims.KeyRunWords(rs[0].dom, prims.KVKey[bool])
		})
		gather.End()
		if err != nil {
			return nil, err
		}
		// The large machine also learns which vertices died via edges it
		// never saw (a dominated vertex with all its edges off-prefix).
		var aliveEdges int64
		for _, r := range got {
			aliveEdges += r.alive
			for _, kv := range r.dom {
				if v := kv.K; kv.V && aliveLarge[v] {
					aliveLarge[v] = false
					processed[v] = true
				}
			}
		}
		// Early exit: with no alive-alive edges left, the alive vertices are
		// pairwise non-adjacent and all join the MIS.
		if aliveEdges == 0 {
			break
		}
		res.Iterations++
		for _, r := range got {
			for _, e := range r.edges {
				accAdj[e.U] = append(accAdj[e.U], e.V)
				accAdj[e.V] = append(accAdj[e.V], e.U)
			}
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
		c.Each(func(i int) {
			domItems[i] = domItems[i][:0]
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
		// A domination flag is presence alone: its value is always true, so
		// a partial and an answer ship their key alone.
		if domRoots, err = prims.PlanCombine(c, plan, domItems, 0, func(a, b bool) bool { return a || b }); err != nil {
			return nil, err
		}
		gotDead, err := prims.PlanBroadcast(c, plan, domRoots, nil, 0)
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
	}

	// Any vertices still alive have no alive edges left: they join the MIS
	// (this also covers the early-exit path and isolated vertices). After
	// the τ = 1 iteration the last combine's roots need not reach the large
	// machine: that iteration shipped every alive edge, so every vertex its
	// joins dominate is already dead there.
	set := make([]int, 0, n/2)
	for v := 0; v < n; v++ {
		if inMIS[v] || aliveLarge[v] {
			set = append(set, v)
		}
	}
	res.Set = set
	return res, nil
}
