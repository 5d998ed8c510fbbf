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

// MSTResult is the output of the Borůvka baseline.
type MSTResult struct {
	Edges  []graph.Edge // validation view (edges remain distributed in-model)
	Weight int64
	Phases int
	Stats  mpc.Stats
}

// minEdgeVal is the per-component minimum outgoing edge.
type minEdgeVal struct {
	W          int64
	OU, OV     int32 // original edge (unique tie-break)
	OtherLabel int64
}

const minEdgeWords = 4

func lessMinEdge(a, b minEdgeVal) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.OU != b.OU {
		return a.OU < b.OU
	}
	return a.OV < b.OV
}

// MST is the sublinear-regime baseline: plain Borůvka with random-mate
// contraction and no large machine — Θ(log n) phases of O(1) rounds each
// (the paper's Table 1 contrasts this O(log n) [5] against the heterogeneous
// O(log log(m/n)) algorithm).
//
// Each phase every component flips a coin from a shared seed, so every
// machine knows every label's coin: a phase plans its machines' tail labels
// once (prims.NewPlan), finds each tail component's minimum outgoing edge
// over that plan (Claim 2 aggregation under the unique-weight order),
// contracts it along that edge when the neighbor flipped head, and
// disseminates the new labels over the same plan. Head components never
// adopt, so their minimum edges are neither aggregated nor requested. Every
// contraction edge is a true minimum outgoing edge, so the output is exactly
// the MSF.
func MST(c *mpc.Cluster, g *graph.Graph) (*MSTResult, error) {
	sp := c.Span("baseline-mst")
	n := g.N
	res := &MSTResult{}
	defer func() { res.Stats = sp.End() }()
	kk := c.K()
	edges := make([][]bEdge, kk)
	dist, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	for i := range dist {
		for _, e := range dist[i] {
			edges[i] = append(edges[i], bEdge{LU: int64(e.U), LV: int64(e.V), W: e.W, OU: int32(e.U), OV: int32(e.V)})
		}
	}

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	coinHash := xrand.NewHash(xrand.Split(seed, 2), 6)
	coin := func(phase int, label int64) bool {
		return coinHash.Eval(uint64(phase)*uint64(n+1)+uint64(label))&1 == 0
	}

	mstParts := make([][]graph.Edge, kk) // MST edges stay distributed
	maxPhases := 6*int(math.Ceil(math.Log2(float64(n)+2))) + 12

	for phase := 0; ; phase++ {
		live, err := prims.SumAll(c, liveCounts(edges))
		if err != nil {
			return nil, err
		}
		if live == 0 {
			break
		}
		if phase >= maxPhases {
			return nil, fmt.Errorf("sublinear: Borůvka failed to converge")
		}
		res.Phases++

		// Only a tail label can adopt, and every machine flips the coins
		// itself: the phase's one plan is of the tail labels each machine
		// holds, and only their minimum outgoing edges are aggregated. The
		// edges' tail labels, in edge order, read their slots off tailSlots.
		tails := make([][]int64, kk)
		items := make([][]prims.KV[minEdgeVal], kk)
		c.Each(func(i int) {
			ls := make([]int64, 0, 2*len(edges[i]))
			items[i] = make([]prims.KV[minEdgeVal], 0, 2*len(edges[i]))
			for _, e := range edges[i] {
				if e.LU == e.LV {
					continue
				}
				mv := minEdgeVal{W: e.W, OU: e.OU, OV: e.OV}
				if !coin(phase, e.LU) {
					mv.OtherLabel = e.LV
					ls = append(ls, e.LU)
					items[i] = append(items[i], prims.KV[minEdgeVal]{K: e.LU, V: mv})
				}
				if !coin(phase, e.LV) {
					mv.OtherLabel = e.LU
					ls = append(ls, e.LV)
					items[i] = append(items[i], prims.KV[minEdgeVal]{K: e.LV, V: mv})
				}
			}
			tails[i] = ls
		})
		labelNeeds, tailSlots := prims.DistinctSlots(tails)
		plan, err := prims.NewPlan(c, labelNeeds)
		if err != nil {
			return nil, err
		}
		minRoots, err := prims.PlanCombine(c, plan, items, minEdgeWords,
			func(a, b minEdgeVal) minEdgeVal {
				if lessMinEdge(b, a) {
					return b
				}
				return a
			})
		if err != nil {
			return nil, err
		}
		// Tail components contract along their min edge into head neighbors;
		// the root machine of the component records the MST edge.
		adoptions := make([][]prims.KV[int64], kk)
		c.Each(func(i int) {
			for _, root := range minRoots[i] {
				mv := root.V
				if coin(phase, mv.OtherLabel) {
					adoptions[i] = append(adoptions[i], prims.KV[int64]{K: root.K, V: mv.OtherLabel})
					mstParts[i] = append(mstParts[i], graph.NewEdge(int(mv.OU), int(mv.OV), mv.W))
				}
			}
		})
		// Disseminate the adoption map to every machine holding the label.
		adopted, err := prims.PlanBroadcast(c, plan, adoptions, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out, ts := edges[i][:0], tailSlots[i]
			// adopt relabels l, a label of a live edge, if it is a tail
			// label and adopted a head's.
			adopt := func(l int64) int64 {
				if !coin(phase, l) {
					nl, ok := adopted.Slot(i, int(ts[0]))
					if ts = ts[1:]; ok {
						return nl
					}
				}
				return l
			}
			for _, e := range edges[i] {
				if e.LU != e.LV {
					e.LU, e.LV = adopt(e.LU), adopt(e.LV)
				}
				if e.LU != e.LV {
					out = append(out, e)
				}
			}
			edges[i] = out
		})
	}

	all := prims.Flatten(mstParts)
	slices.SortFunc(all, graph.Edge.Compare)
	res.Edges = all
	for _, e := range all {
		res.Weight += e.W
	}
	return res, nil
}

// bEdge is a contracted baseline edge: current component labels plus the
// original (unique-weight) edge.
type bEdge struct {
	LU, LV int64
	W      int64
	OU, OV int32
}

func liveCounts(edges [][]bEdge) []int64 {
	out := make([]int64, len(edges))
	for i := range edges {
		for _, e := range edges[i] {
			if e.LU != e.LV {
				out[i]++
			}
		}
	}
	return out
}
