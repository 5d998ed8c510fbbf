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
// Each phase: every component finds its minimum outgoing edge (Claim 2
// aggregation under the unique-weight order); tail-flipping components
// contract along that edge into head-flipping neighbors (coins from a shared
// seed); labels update by dissemination. Every contraction edge is a true
// minimum outgoing edge, so the output is exactly the MSF.
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

		// Minimum outgoing edge per component (both directions).
		items := make([][]prims.KV[minEdgeVal], kk)
		c.Each(func(i int) {
			items[i] = make([]prims.KV[minEdgeVal], 0, 2*len(edges[i]))
			for _, e := range edges[i] {
				if e.LU == e.LV {
					continue
				}
				mv := minEdgeVal{W: e.W, OU: e.OU, OV: e.OV}
				a := mv
				a.OtherLabel = e.LV
				b := mv
				b.OtherLabel = e.LU
				items[i] = append(items[i],
					prims.KV[minEdgeVal]{K: e.LU, V: a},
					prims.KV[minEdgeVal]{K: e.LV, V: b})
			}
		})
		minRoots, _, err := prims.AggregateByKey(c, items, minEdgeWords,
			func(a, b minEdgeVal) minEdgeVal {
				if lessMinEdge(b, a) {
					return b
				}
				return a
			}, false)
		if err != nil {
			return nil, err
		}
		// Tail components contract along their min edge into head neighbors;
		// the root machine of the component records the MST edge.
		adoptions := make([][]prims.KV[int64], kk)
		c.Each(func(i int) {
			for _, root := range minRoots[i] {
				mv := root.V
				if !coin(phase, root.K) && coin(phase, mv.OtherLabel) {
					adoptions[i] = append(adoptions[i], prims.KV[int64]{K: root.K, V: mv.OtherLabel})
					mstParts[i] = append(mstParts[i], graph.NewEdge(int(mv.OU), int(mv.OV), mv.W))
				}
			}
		})
		// Disseminate the adoption map to every machine holding the label.
		labelNeeds := make([][]int64, kk)
		c.Each(func(i int) {
			ls := make([]int64, 0, 2*len(edges[i]))
			for _, e := range edges[i] {
				ls = append(ls, e.LU, e.LV)
			}
			labelNeeds[i] = prims.DistinctInts(ls)
		})
		maps, err := prims.SegmentedBroadcast(c, labelNeeds, adoptions, nil, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out := edges[i][:0]
			for _, e := range edges[i] {
				if nl, ok := maps[i][e.LU]; ok {
					e.LU = nl
				}
				if nl, ok := maps[i][e.LV]; ok {
					e.LV = nl
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
