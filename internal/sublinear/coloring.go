package sublinear

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// ColoringResult is the output of the random-trial coloring baseline.
type ColoringResult struct {
	Colors   []int
	MaxColor int
	Rounds   int // trial rounds (Θ(log n)), each O(1) communication rounds
	Stats    mpc.Stats
}

// Coloring is the sublinear-regime baseline: iterated random color trials
// with no large machine — Θ(log n) rounds (Table 1 contrasts the
// heterogeneous O(1) [6] against the sublinear O(log log log n) [19];
// random trials are the classical simple baseline with non-constant round
// count).
//
// Each round every uncolored vertex tries a shared-seed random color from
// [0, Δ]; it keeps the color if no neighbor holds or tries the same one.
func Coloring(c *mpc.Cluster, g *graph.Graph) (*ColoringResult, error) {
	sp := c.Span("baseline-coloring")
	n := g.N
	res := &ColoringResult{}
	defer func() { res.Stats = sp.End() }()
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

	// Δ: the degrees are aggregated over the plan, and every machine learns
	// the largest through the coordinator.
	degItems := make([][]prims.KV[int64], kk)
	c.Each(func(i int) {
		for _, e := range edges[i] {
			degItems[i] = append(degItems[i], prims.KV[int64]{K: int64(e.U), V: 1}, prims.KV[int64]{K: int64(e.V), V: 1})
		}
	})
	degRoots, err := prims.PlanCombine(c, plan, degItems, 1, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	localMax := make([]int64, kk)
	for i := range degRoots {
		for _, d := range degRoots[i] {
			localMax[i] = max(localMax[i], d.V)
		}
	}
	maxDeg, err := prims.MaxAll(c, localMax)
	if err != nil {
		return nil, err
	}
	if maxDeg < 1 {
		maxDeg = 1
	}
	res.MaxColor = int(maxDeg)

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	tryHash := xrand.NewHash(xrand.Split(seed, 9), 6)
	try := func(round, v int) int {
		return int(tryHash.Eval(uint64(round)*uint64(n+1)+uint64(v)) % uint64(maxDeg+1))
	}

	// Per-machine fixed color by slot (-1 = uncolored), consistent across
	// machines because all decisions derive from disseminated aggregates.
	colors := make([][]int, kk)
	c.Each(func(i int) {
		colors[i] = make([]int, len(verts[i]))
		for s := range colors[i] {
			colors[i][s] = -1
		}
	})
	maxRounds := 8*int(math.Ceil(math.Log2(float64(n)+2))) + 16

	for round := 0; ; round++ {
		liveCounts := make([]int64, kk)
		c.Each(func(i int) {
			for j := range edges[i] {
				if colors[i][slots[i][2*j]] < 0 || colors[i][slots[i][2*j+1]] < 0 {
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
			return nil, fmt.Errorf("sublinear: coloring failed to converge")
		}
		res.Rounds++

		// Per uncolored vertex: does any neighbor block its tried color
		// (same trial, or an already-fixed equal color)?
		items := make([][]prims.KV[bool], kk)
		c.Each(func(i int) {
			for j, e := range edges[i] {
				cu, cv := colors[i][slots[i][2*j]], colors[i][slots[i][2*j+1]]
				if cu < 0 {
					blocked := (cv < 0 && try(round, e.V) == try(round, e.U)) ||
						(cv >= 0 && cv == try(round, e.U))
					items[i] = append(items[i], prims.KV[bool]{K: int64(e.U), V: blocked})
				}
				if cv < 0 {
					blocked := (cu < 0 && try(round, e.U) == try(round, e.V)) ||
						(cu >= 0 && cu == try(round, e.V))
					items[i] = append(items[i], prims.KV[bool]{K: int64(e.V), V: blocked})
				}
			}
		})
		blockRoots, err := prims.PlanCombine(c, plan, items, 1, func(a, b bool) bool { return a || b })
		if err != nil {
			return nil, err
		}
		blocks, err := prims.PlanBroadcast(c, plan, blockRoots, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			for s, v := range verts[i] {
				if colors[i][s] >= 0 {
					continue
				}
				blocked, known := blocks.Slot(i, s)
				if known && !blocked {
					colors[i][s] = try(round, int(v))
				}
			}
		})
	}

	// Validation view.
	out := make([]int, n) // isolated vertices keep color 0
	for i := range colors {
		for s, v := range verts[i] {
			if col := colors[i][s]; col >= 0 {
				out[v] = col
			}
		}
	}
	res.Colors = out
	return res, nil
}
