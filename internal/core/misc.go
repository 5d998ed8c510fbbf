package core

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
)

// TwoVsOneCycleResult is the output of the motivating §1 problem.
type TwoVsOneCycleResult struct {
	Cycles int // number of cycles (connected components)
	Stats  mpc.Stats
}

// TwoVsOneCycle solves the "2-vs-1 cycle" problem — the source of the
// sublinear regime's conditional hardness — in O(1) rounds, exactly as the
// paper's introduction observes: the input has only n edges, so a single
// machine with Ω(n log n) memory can hold the entire graph.
func TwoVsOneCycle(c *mpc.Cluster, g *graph.Graph) (*TwoVsOneCycleResult, error) {
	if !c.HasLarge() {
		// That one machine can hold the whole input is the point.
		return nil, errNeedsLarge("TwoVsOneCycle")
	}
	if len(g.Edges) != g.N {
		return nil, fmt.Errorf("core: input is not a disjoint union of cycles (m=%d, n=%d)", len(g.Edges), g.N)
	}
	sp := c.Span("2v1")
	res := &TwoVsOneCycleResult{}
	defer func() { res.Stats = sp.End().Model() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	all, err := prims.GatherToLarge(c, edges, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	_, res.Cycles = graph.ComponentsOf(g.N, all)
	return res, nil
}

// APSPOracle answers approximate all-pairs-shortest-path queries from an
// O(log n)-spanner stored on the large machine (Corollary 4.2).
type APSPOracle struct {
	Spanner    *graph.Graph
	Stretch    int // guaranteed multiplicative stretch (O(log n))
	BuildStats mpc.Stats

	adj   [][]graph.Half
	cache [][]int64 // per-source distance cache, nil until computed (large-machine local)
}

// BuildAPSPOracle constructs the oracle in O(1) rounds: an O(log n)-spanner
// of size Õ(n) is computed (Theorem 4.1 with k = log n) and kept on the
// large machine; queries are answered locally from the spanner.
func BuildAPSPOracle(c *mpc.Cluster, g *graph.Graph) (*APSPOracle, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("BuildAPSPOracle")
	}
	sp := c.Span("apsp")
	o := &APSPOracle{}
	defer func() { o.BuildStats = sp.End().Model() }()
	k := int(math.Ceil(math.Log2(float64(g.N) + 2)))
	var (
		res *SpannerResult
		err error
	)
	if g.Weighted {
		res, err = SpannerWeighted(c, g, k)
	} else {
		res, err = Spanner(c, g, k)
	}
	if err != nil {
		return nil, err
	}
	h := graph.New(g.N, res.Edges, g.Weighted)
	o.Spanner = h
	o.Stretch = res.Stretch
	o.adj = h.Adj()
	o.cache = make([][]int64, g.N)
	return o, nil
}

// Dist returns the oracle's distance estimate between u and v: at most
// Stretch times the true distance, and never below it. Unreachable pairs
// return math.MaxInt64.
func (o *APSPOracle) Dist(u, v int) int64 {
	d := o.cache[u]
	if d == nil {
		if o.Spanner.Weighted {
			d = graph.DijkstraDist(o.adj, u)
		} else {
			bfs := graph.BFSDist(o.adj, u)
			d = make([]int64, len(bfs))
			for i, x := range bfs {
				if x == math.MaxInt {
					d[i] = math.MaxInt64
				} else {
					d[i] = int64(x)
				}
			}
		}
		o.cache[u] = d
	}
	return d[v]
}
