package exp

import (
	"errors"
	"fmt"
	"slices"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sched"
	"hetmpc/internal/sublinear"
	"hetmpc/internal/trace"
)

// An experiment is a grid of cells, and every cluster it builds is one
// cell: a Config, built only through run.build so that Env overrides, close
// and the artifact's ModelStats cannot be bypassed; one algorithm call; and
// that call's validation against the exact reference, so no row is ever
// emitted from an unchecked output.

// cell builds cfg and runs alg on the cluster: one of the validators below,
// or a closure around an algorithm whose row reports its own error against
// the reference (approximations, min cut). A cell the experiment itself
// traces (cfg.Trace set) also re-proves trace conservation.
func cell[R any](rn *run, cfg mpc.Config, alg func(*mpc.Cluster) (R, error)) (*mpc.Cluster, R, error) {
	traced := cfg.Trace != nil
	c, err := rn.build(cfg)
	if err != nil {
		var zero R
		return nil, zero, err
	}
	r, err := alg(c)
	if err == nil && traced {
		err = traceConserved(c)
	}
	return c, r, err
}

// het is the heterogeneous regime: the small machines plus one large machine
// of memory exponent 1+f.
func het(n, m int, f float64, seed uint64) mpc.Config {
	return mpc.Config{N: n, M: m, F: f, Seed: seed}
}

// baseline is the sublinear regime: the same small machines, no large one.
func baseline(n, m int, seed uint64) mpc.Config {
	return mpc.Config{N: n, M: m, NoLarge: true, Seed: seed}
}

// beefyCoordinator marks the large machine as the fast server it is in the
// model (it already holds ~n^{1-γ} times a small machine's memory; the
// placement sweeps provision its speed and link to match). Without this the
// coordinator's broadcast fan-out dominates every round's clock and no
// small-machine placement decision is visible in the makespan at all.
func beefyCoordinator(p *mpc.Profile) *mpc.Profile {
	p.LargeSpeed, p.LargeBandwidth = 64, 64
	return p
}

// skews are the canonical capacity, cohort and straggler skews the placement
// grids cross (E23, E29), in the spec syntax every profile list here uses.
var skews = []string{"zipf:0.8", "bimodal:0.25:4", "straggler:2:8"}

// profiled is the config of a cell on g under one profile spec, in
// mpc.ParseProfile's syntax, on a beefy coordinator if asked. A sweep pins
// the axis it sweeps on every cell, so the baseline spelling resolves to the
// explicit mpc.UniformProfile: bit-identical to nil, but out of an Env
// override's reach. The specs are constants of this package; a parse error
// is a bug.
func profiled(g *graph.Graph, seed uint64, spec string, beefy bool) mpc.Config {
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: seed}
	p, err := mpc.ParseProfile(spec, cfg.DeriveK())
	if err != nil {
		panic(err)
	}
	if p == nil {
		p = mpc.UniformProfile(cfg.DeriveK())
	}
	if beefy {
		p = beefyCoordinator(p)
	}
	cfg.Profile = p
	return cfg
}

// checked runs alg on g and holds its result to check.
func checked[R any](g *graph.Graph, alg func(*mpc.Cluster, *graph.Graph) (R, error), check func(R) error) func(*mpc.Cluster) (R, error) {
	return func(c *mpc.Cluster) (R, error) {
		r, err := alg(c, g)
		if err == nil {
			err = check(r)
		}
		return r, err
	}
}

// The validators: one per problem and regime, each an algorithm on g held to
// the exact reference.

// mst: core.MST must return a spanning forest of g of weight want
// (Kruskal's, which the caller computes once per graph).
func mst(g *graph.Graph, want int64) func(*mpc.Cluster) (*core.MSTResult, error) {
	return mstWith(g, want, core.MSTOptions{})
}

// mstWith is mst under E16's ablation options.
func mstWith(g *graph.Graph, want int64, opts core.MSTOptions) func(*mpc.Cluster) (*core.MSTResult, error) {
	alg := func(c *mpc.Cluster, g *graph.Graph) (*core.MSTResult, error) { return core.MSTWithOptions(c, g, opts) }
	return checked(g, alg, func(r *core.MSTResult) error { return forest(g, r.Edges, r.Weight, want) })
}

// baseMST is the sublinear Borůvka baseline, held to the same forest.
func baseMST(g *graph.Graph, want int64) func(*mpc.Cluster) (*sublinear.MSTResult, error) {
	return checked(g, sublinear.MST, func(r *sublinear.MSTResult) error { return forest(g, r.Edges, r.Weight, want) })
}

func forest(g *graph.Graph, edges []graph.Edge, weight, want int64) error {
	if weight != want {
		return fmt.Errorf("MST weight %d, want %d", weight, want)
	}
	return graph.CheckSpanningForest(g, edges)
}

// cc: core.Connectivity must count want components.
func cc(g *graph.Graph, want int) func(*mpc.Cluster) (*core.ConnectivityResult, error) {
	return checked(g, core.Connectivity, func(r *core.ConnectivityResult) error { return components(r.Components, want) })
}

// baseCC is the sublinear connectivity baseline, held to the same count.
func baseCC(g *graph.Graph, want int) func(*mpc.Cluster) (*sublinear.CCResult, error) {
	return checked(g, sublinear.Connectivity, func(r *sublinear.CCResult) error { return components(r.Components, want) })
}

func components(got, want int) error {
	if got != want {
		return fmt.Errorf("%d components, want %d", got, want)
	}
	return nil
}

// maximal: alg (core.MaximalMatching, or core.MatchingFiltering in the
// superlinear regime) must return a matching of g that no edge of g extends.
func maximal(g *graph.Graph, alg func(*mpc.Cluster, *graph.Graph) (*core.MatchingResult, error)) func(*mpc.Cluster) (*core.MatchingResult, error) {
	return checked(g, alg, func(r *core.MatchingResult) error { return graph.CheckMatching(g, r.Edges, true) })
}

// baseMatching is the sublinear peeling baseline, held to the same.
func baseMatching(g *graph.Graph) func(*mpc.Cluster) (*sublinear.PeelResult, error) {
	return func(c *mpc.Cluster) (*sublinear.PeelResult, error) {
		edges, r, err := sublinear.MaximalMatching(c, g)
		if err == nil {
			err = graph.CheckMatching(g, edges, true)
		}
		return r, err
	}
}

// mis: core.MIS must return a maximal independent set of g.
func mis(g *graph.Graph) func(*mpc.Cluster) (*core.MISResult, error) {
	return checked(g, core.MIS, func(r *core.MISResult) error { return graph.CheckMIS(g, r.Set) })
}

// baseMIS is Luby's baseline, held to the same.
func baseMIS(g *graph.Graph) func(*mpc.Cluster) (*sublinear.MISResult, error) {
	return checked(g, sublinear.MIS, func(r *sublinear.MISResult) error { return graph.CheckMIS(g, r.Set) })
}

// coloring: core.Coloring must colour g properly with its reported palette.
func coloring(g *graph.Graph) func(*mpc.Cluster) (*core.ColoringResult, error) {
	return checked(g, core.Coloring, func(r *core.ColoringResult) error { return graph.CheckColoring(g, r.Colors, r.MaxColor) })
}

// baseColoring is the sublinear colouring baseline, held to the same.
func baseColoring(g *graph.Graph) func(*mpc.Cluster) (*sublinear.ColoringResult, error) {
	return checked(g, sublinear.Coloring, func(r *sublinear.ColoringResult) error { return graph.CheckColoring(g, r.Colors, r.MaxColor) })
}

// spanner: core.Spanner's subgraph must keep g's sampled distances within
// its reported stretch.
func spanner(g *graph.Graph, k int, seed uint64) func(*mpc.Cluster) (*core.SpannerResult, error) {
	alg := func(c *mpc.Cluster, g *graph.Graph) (*core.SpannerResult, error) { return core.Spanner(c, g, k) }
	return checked(g, alg, func(r *core.SpannerResult) error {
		return graph.CheckSpanner(g, graph.New(g.N, r.Edges, false), r.Stretch, 4, seed)
	})
}

// baseSpanner is plain Baswana-Sen, held to stretch 2k-1.
func baseSpanner(g *graph.Graph, k int, seed uint64) func(*mpc.Cluster) (*sublinear.SpannerResult, error) {
	alg := func(c *mpc.Cluster, g *graph.Graph) (*sublinear.SpannerResult, error) {
		return sublinear.Spanner(c, g, k)
	}
	return checked(g, alg, func(r *sublinear.SpannerResult) error {
		return graph.CheckSpanner(g, graph.New(g.N, r.Edges, false), 2*k-1, 4, seed)
	})
}

// edgeKey orders edges by (weight, u, v).
func edgeKey(e graph.Edge) prims.SortKey {
	return prims.SortKey{A: e.W, B: int64(e.U), C: int64(e.V)}
}

// placeSort is the place + sample-sort cell (E17, E23, E29, E30): g's edges
// placed by the cluster's policy and sorted by edgeKey. The buckets must be
// globally sorted and hold every edge.
func placeSort(g *graph.Graph) func(*mpc.Cluster) ([][]graph.Edge, error) {
	return func(c *mpc.Cluster) ([][]graph.Edge, error) {
		data, err := prims.DistributeEdges(c, g)
		if err != nil {
			return nil, err
		}
		sorted, err := prims.Sort(c, data, prims.EdgeWords, edgeKey)
		if err != nil {
			return nil, err
		}
		if !prims.IsGloballySorted(sorted, edgeKey) {
			return nil, errors.New("sort postcondition violated")
		}
		if got := prims.CountItems(sorted); got != g.M() {
			return nil, fmt.Errorf("%d items after sort, want %d", got, g.M())
		}
		return sorted, nil
	}
}

// capRow holds a row of policy cells to the row's cap cell, which runs
// first: placement moves data, never the result, so every other policy's
// output (the sorted edges, or the tree in edgeKey order) and round count
// must be cap's exactly.
type capRow struct {
	out   []graph.Edge
	stats mpc.Stats
}

// check records the cap cell, or holds any other policy's cell to it.
func (cr *capRow) check(pol sched.Policy, out []graph.Edge, st mpc.Stats) error {
	if pol.Name() == "cap" {
		cr.out, cr.stats = out, st
		return nil
	}
	if !slices.Equal(out, cr.out) {
		return fmt.Errorf("output diverged from cap's (%d items vs %d)", len(out), len(cr.out))
	}
	if st.Rounds != cr.stats.Rounds {
		return fmt.Errorf("round structure changed: %d vs cap %d", st.Rounds, cr.stats.Rounds)
	}
	return nil
}

// traceConserved checks the trace conservation contract of one traced
// cluster (DESIGN.md §9): the ordered sum of per-round makespan
// contributions is bit-identical to Stats.Makespan, and the per-round words
// and rounds sum to the Stats totals.
func traceConserved(c *mpc.Cluster) error {
	st := c.Stats()
	s := trace.Summarize(c.Trace().Rounds())
	if s.Makespan != st.Makespan {
		return fmt.Errorf("trace makespan %v != stats makespan %v (conservation broken)", s.Makespan, st.Makespan)
	}
	if s.Words != st.TotalWords {
		return fmt.Errorf("trace words %d != stats words %d", s.Words, st.TotalWords)
	}
	if s.Rounds != st.Rounds {
		return fmt.Errorf("trace rounds %d != stats rounds %d", s.Rounds, st.Rounds)
	}
	if len(s.Phases) == 0 {
		return errors.New("empty phase breakdown")
	}
	return nil
}
