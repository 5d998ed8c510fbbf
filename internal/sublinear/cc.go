package sublinear

import (
	"fmt"
	"math"

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
// a broadcast shared seed, so they are locally computable everywhere.
func Connectivity(c *mpc.Cluster, g *graph.Graph) (*CCResult, error) {
	sp := c.Span("baseline-cc")
	n := g.N
	res := &CCResult{}
	// Registered before the first fallible call so the span closes on every
	// path (the early-return leak hetlint's spanpair analyzer flags).
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
	coinHash := xrand.NewHash(xrand.Split(seed, 1), 6)
	coin := func(phase, label int) bool { // true = head
		return coinHash.Eval(uint64(phase)*uint64(n+1)+uint64(label))&1 == 0
	}

	// Per-machine current label of every vertex it stores.
	labels := make([]map[int64]int64, kk)
	c.Each(func(i int) {
		labels[i] = make(map[int64]int64)
		for _, e := range edges[i] {
			labels[i][int64(e.U)] = int64(e.U)
			labels[i][int64(e.V)] = int64(e.V)
		}
	})

	maxPhases := 4*int(math.Ceil(math.Log2(float64(n)+2))) + 10
	for phase := 0; ; phase++ {
		// Count live (inter-component) edges.
		liveCounts := make([]int64, kk)
		c.Each(func(i int) {
			for _, e := range edges[i] {
				if labels[i][int64(e.U)] != labels[i][int64(e.V)] {
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

		// Tail labels adopt the smallest head neighbor label.
		items := make([][]prims.KV[int64], kk)
		c.Each(func(i int) {
			for _, e := range edges[i] {
				lu, lv := labels[i][int64(e.U)], labels[i][int64(e.V)]
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
		adoptRoots, _, err := prims.AggregateByKey(c, items, 1,
			func(a, b int64) int64 {
				if a < b {
					return a
				}
				return b
			}, false)
		if err != nil {
			return nil, err
		}
		// Machines need the adoption mapping for every LABEL they hold.
		labelNeeds := make([][]int64, kk)
		c.Each(func(i int) {
			ls := make([]int64, 0, len(labels[i]))
			for _, l := range labels[i] {
				ls = append(ls, l)
			}
			labelNeeds[i] = prims.DistinctInts(ls)
		})
		adoptMaps, err := prims.SegmentedBroadcast(c, labelNeeds, adoptRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			for v, l := range labels[i] {
				if nl, ok := adoptMaps[i][l]; ok {
					labels[i][v] = nl
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
		for v, l := range labels[i] {
			global[v] = int(l)
		}
	}
	// Normalize to smallest-member labels for comparison with references.
	remap := map[int]int{}
	for v := 0; v < n; v++ {
		l := global[v]
		if cur, ok := remap[l]; !ok || v < cur {
			remap[l] = v
		}
	}
	distinct := map[int]bool{}
	for v := 0; v < n; v++ {
		global[v] = remap[global[v]]
		distinct[global[v]] = true
	}
	res.Labels = global
	res.Components = len(distinct)
	return res, nil
}
