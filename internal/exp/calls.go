package exp

import (
	"fmt"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sublinear"
)

// The table of named calls: every algorithm a graph can be handed to, by
// cmd/hetrun's -alg name, each run through a validator of cells.go. Table
// 1's twelve rows (Table1Calls) and E26's three algorithms are its entries.

// Params are what a call may read besides the graph: the spanner's k, an
// approximation's ε, and the seed of a check's sampled pairs.
type Params struct {
	K    int
	Eps  float64
	Seed uint64
}

// Call is one entry of the table.
type Call struct {
	Name     string // cmd/hetrun's -alg name
	NoLarge  bool   // the sublinear regime: no large machine
	Weighted bool   // a generated input for it carries weights
	// Run makes the call on g and returns its result, held to the exact
	// reference where the problem has one, and a one-line report.
	Run func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error)
}

// calls is the table, in the order cmd/hetrun's -alg help lists it.
var calls = []Call{
	{Name: "mst", Weighted: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, mst(g), "MST: weight=%d edges=%d boruvka-phases=%d sample-tries=%d (validated exact)",
			func(r *core.MSTResult) []any { return []any{r.Weight, len(r.Edges), r.BoruvkaPhases, r.SampleTries} })
	}},
	{Name: "spanner", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, spanner(g, p.K, p.Seed), "spanner: k=%d stretch<=%d edges=%d of %d (validated on sampled pairs)",
			func(r *core.SpannerResult) []any { return []any{p.K, r.Stretch, len(r.Edges), g.M()} })
	}},
	{Name: "apsp", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, apsp(g, p.Seed), "APSP oracle: spanner edges=%d stretch<=%d d(0,%d)=%d (validated on sampled pairs)",
			func(o *core.APSPOracle) []any { return []any{o.Spanner.M(), o.Stretch, g.N - 1, o.Dist(0, g.N-1)} })
	}},
	{Name: "matching", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, maximal(g, core.MaximalMatching), "matching: edges=%d phase1-iters=%d (validated maximal)",
			func(r *core.MatchingResult) []any { return []any{len(r.Edges), r.Phase1Iters} })
	}},
	{Name: "matching-filter", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, maximal(g, core.MatchingFiltering), "matching (filtering): edges=%d filter-iters=%d (validated maximal)",
			func(r *core.MatchingResult) []any { return []any{len(r.Edges), r.FilterIters} })
	}},
	{Name: "connectivity", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, cc(g), "connectivity: components=%d phases=%d (validated exact)",
			func(r *core.ConnectivityResult) []any { return []any{r.Components, r.Phases} })
	}},
	{Name: "approx-mst", Weighted: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, approxMST(g, p.Eps), "approx MST: estimate=%d exact=%d thresholds=%d",
			func(r *core.MSTApproxResult) []any {
				_, exact := graph.KruskalMSF(g)
				return []any{r.Estimate, exact, r.Thresholds}
			})
	}},
	{Name: "mincut", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, minCut(g), "min cut: value=%d trials=%d (validated exact)",
			func(r *core.MinCutResult) []any { return []any{r.Value, r.Trials} })
	}},
	{Name: "approx-mincut", Weighted: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, approxCut(g, p.Eps), "approx min cut: value=%d guesses=%d",
			func(r *core.MinCutResult) []any { return []any{r.Value, r.Trials} })
	}},
	{Name: "mis", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, mis(g), "MIS: size=%d iterations=%d (validated)",
			func(r *core.MISResult) []any { return []any{len(r.Set), r.Iterations} })
	}},
	{Name: "coloring", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, coloring(g), "coloring: palette=%d conflict-edges=%d retries=%d (validated proper)",
			func(r *core.ColoringResult) []any { return []any{r.MaxColor + 1, r.ConflictEdges, r.Retries} })
	}},
	{Name: "2v1", Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, twoVsOne(g), "2-vs-1 cycle: cycles=%d (validated exact)",
			func(r *core.TwoVsOneCycleResult) []any { return []any{r.Cycles} })
	}},
	{Name: "baseline-mst", NoLarge: true, Weighted: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseMST(g), "baseline MST: weight=%d phases=%d (validated exact)",
			func(r *sublinear.MSTResult) []any { return []any{r.Weight, r.Phases} })
	}},
	{Name: "baseline-cc", NoLarge: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseCC(g), "baseline connectivity: components=%d phases=%d (validated exact)",
			func(r *sublinear.CCResult) []any { return []any{r.Components, r.Phases} })
	}},
	{Name: "baseline-spanner", NoLarge: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseSpanner(g, p.K, p.Seed), "baseline spanner (Baswana-Sen): k=%d stretch<=%d edges=%d of %d (validated on sampled pairs)",
			func(r *sublinear.SpannerResult) []any { return []any{p.K, 2*p.K - 1, len(r.Edges), g.M()} })
	}},
	{Name: "baseline-mis", NoLarge: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseMIS(g), "baseline MIS (Luby): size=%d rounds=%d (validated)",
			func(r *sublinear.MISResult) []any { return []any{len(r.Set), r.Rounds} })
	}},
	{Name: "baseline-coloring", NoLarge: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseColoring(g), "baseline coloring: palette=%d trials=%d (validated proper)",
			func(r *sublinear.ColoringResult) []any { return []any{r.MaxColor + 1, r.Rounds} })
	}},
	{Name: "baseline-matching", NoLarge: true, Run: func(c *mpc.Cluster, g *graph.Graph, p Params) (any, string, error) {
		return reported(c, baseMatching(g), "baseline matching: edges=%d peel-iters=%d (validated maximal)",
			func(r *sublinear.PeelResult) []any { return []any{prims.CountItems(r.Matched), r.Iterations} })
	}},
}

// reported makes a call and renders its report line from format and args.
func reported[R any](c *mpc.Cluster, run func(*mpc.Cluster) (R, error), format string, args func(R) []any) (any, string, error) {
	r, err := run(c)
	if err != nil {
		return nil, "", err
	}
	return r, fmt.Sprintf(format, args(r)...), nil
}

// on picks the call's input, gW if it is weighted and gU if not, and
// returns it with the call on it, its report dropped: the shape a cell runs.
func (call Call) on(gU, gW *graph.Graph, p Params) (*graph.Graph, func(*mpc.Cluster) (any, error)) {
	g := gU
	if call.Weighted {
		g = gW
	}
	return g, func(c *mpc.Cluster) (any, error) {
		r, _, err := call.Run(c, g, p)
		return r, err
	}
}

// CallNames returns the names of the table's calls, in table order.
func CallNames() []string {
	names := make([]string, len(calls))
	for i, c := range calls {
		names[i] = c.Name
	}
	return names
}

// LookupCall returns the call named name, and whether there is one.
func LookupCall(name string) (Call, bool) {
	for _, call := range calls {
		if call.Name == name {
			return call, true
		}
	}
	return Call{}, false
}
