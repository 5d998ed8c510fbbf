package exp

import (
	"errors"
	"fmt"

	"hetmpc/internal/core"
	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sublinear"
	"hetmpc/internal/trace"
)

// An experiment is a grid of cells, and every cluster it builds is one
// cell: a Config, built only through run.build so that Env overrides, close
// and the artifact's ModelStats cannot be bypassed; one algorithm call; and
// that call's validation against the exact reference, so no row is ever
// emitted from an unchecked output.

// cell builds cfg and runs alg on the cluster: one of the validators below,
// or an approximation whose row reports its own error against the
// reference. A cell the experiment itself
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
// placement sweeps provision its compute and link 64× a small machine's, a
// time per word of 1/64 + 1/64). Without this the coordinator's broadcast
// fan-out dominates every round's clock and no small-machine placement
// decision is visible in the makespan at all.
func beefyCoordinator(p *mpc.Profile) *mpc.Profile {
	p.LargeCost = 1.0 / 32
	return p
}

// profiled is the config of a cell on g and k machines (0 derives K) under
// one profile spec, in mpc.ParseProfile's syntax, on a beefy coordinator if
// asked. A sweep pins the axis it sweeps on every cell, so the baseline
// spelling resolves to the explicit mpc.UniformProfile: bit-identical to
// nil, but out of an Env override's reach. The specs are constants of this
// package; a parse error is a bug.
func profiled(g *graph.Graph, k int, seed uint64, spec string, beefy bool) mpc.Config {
	cfg := mpc.Config{N: g.N, M: g.M(), K: k, Seed: seed}
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

// planned is a cell's fault plan on k machines under one spec, in
// fault.ParsePlan's syntax. As in profiled, the baseline spelling resolves
// to an explicit value, the inactive &fault.Plan{}: bit-identical to nil,
// but out of an Env override's reach.
func planned(spec string, k int) *fault.Plan {
	p, err := fault.ParsePlan(spec, k)
	if err != nil {
		panic(err)
	}
	if p == nil {
		p = &fault.Plan{}
	}
	return p
}

// checked runs alg on g and holds its result to check; a failed check is a
// validation error.
func checked[R any](g *graph.Graph, alg func(*mpc.Cluster, *graph.Graph) (R, error), check func(R) error) func(*mpc.Cluster) (R, error) {
	return func(c *mpc.Cluster) (R, error) {
		r, err := alg(c, g)
		if err == nil {
			if err = check(r); err != nil {
				err = fmt.Errorf("validation: %w", err)
			}
		}
		return r, err
	}
}

// The validators: one per problem and regime, each an algorithm on g held to
// the exact reference, which it computes from g.

// mst: core.MST must return a spanning forest of g of Kruskal's weight.
func mst(g *graph.Graph) func(*mpc.Cluster) (*core.MSTResult, error) {
	return mstWith(g, core.MSTOptions{})
}

// mstWith is mst under E16's ablation options.
func mstWith(g *graph.Graph, opts core.MSTOptions) func(*mpc.Cluster) (*core.MSTResult, error) {
	alg := func(c *mpc.Cluster, g *graph.Graph) (*core.MSTResult, error) { return core.MSTWithOptions(c, g, opts) }
	return checked(g, alg, func(r *core.MSTResult) error { return forest(g, r.Edges, r.Weight) })
}

// baseMST is the sublinear Borůvka baseline, held to the same forest.
func baseMST(g *graph.Graph) func(*mpc.Cluster) (*sublinear.MSTResult, error) {
	return checked(g, sublinear.MST, func(r *sublinear.MSTResult) error { return forest(g, r.Edges, r.Weight) })
}

func forest(g *graph.Graph, edges []graph.Edge, weight int64) error {
	if _, want := graph.KruskalMSF(g); weight != want {
		return fmt.Errorf("MST weight %d, want %d", weight, want)
	}
	return graph.CheckSpanningForest(g, edges)
}

// cc: core.Connectivity must count g's components.
func cc(g *graph.Graph) func(*mpc.Cluster) (*core.ConnectivityResult, error) {
	return checked(g, core.Connectivity, func(r *core.ConnectivityResult) error { return components(g, r.Components, "components") })
}

// baseCC is the sublinear connectivity baseline, held to the same count.
func baseCC(g *graph.Graph) func(*mpc.Cluster) (*sublinear.CCResult, error) {
	return checked(g, sublinear.Connectivity, func(r *sublinear.CCResult) error { return components(g, r.Components, "components") })
}

// twoVsOne: core.TwoVsOneCycle must count g's cycles, its components.
func twoVsOne(g *graph.Graph) func(*mpc.Cluster) (*core.TwoVsOneCycleResult, error) {
	return checked(g, core.TwoVsOneCycle, func(r *core.TwoVsOneCycleResult) error { return components(g, r.Cycles, "cycles") })
}

// components holds a count of g's components (its cycles, for twoVsOne) to
// the reference.
func components(g *graph.Graph, got int, what string) error {
	if _, want := graph.Components(g); got != want {
		return fmt.Errorf("%d %s, want %d", got, what, want)
	}
	return nil
}

// minCut: core.MinCutUnweighted must find Stoer-Wagner's value.
func minCut(g *graph.Graph) func(*mpc.Cluster) (*core.MinCutResult, error) {
	return checked(g, core.MinCutUnweighted, func(r *core.MinCutResult) error { return cutValue(g, r.Value) })
}

func cutValue(g *graph.Graph, got int64) error {
	if want := graph.StoerWagner(g); got != want {
		return fmt.Errorf("min cut %d, want %d", got, want)
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
	alg := func(c *mpc.Cluster, g *graph.Graph) (*sublinear.PeelResult, error) {
		_, r, err := sublinear.MaximalMatching(c, g)
		return r, err
	}
	return checked(g, alg, func(r *sublinear.PeelResult) error { return graph.CheckMatching(g, prims.Flatten(r.Matched), true) })
}

// mis: core.MIS must return a maximal independent set of g.
func mis(g *graph.Graph) func(*mpc.Cluster) (*core.MISResult, error) {
	return checked(g, core.MIS, func(r *core.MISResult) error { return graph.CheckMIS(g, r.Set) })
}

// baseMIS is Luby's baseline, held to the same.
func baseMIS(g *graph.Graph) func(*mpc.Cluster) (*sublinear.MISResult, error) {
	return checked(g, sublinear.MIS, func(r *sublinear.MISResult) error { return graph.CheckMIS(g, r.Set) })
}

// coloring: core.Coloring must colour g properly with its reported palette,
// and on a g with edges ship at least one conflict edge — the proof that
// Theorem C.7's list path ran.
func coloring(g *graph.Graph) func(*mpc.Cluster) (*core.ColoringResult, error) {
	return checked(g, core.Coloring, func(r *core.ColoringResult) error { return listColored(g, r) })
}

func listColored(g *graph.Graph, r *core.ColoringResult) error {
	if g.M() > 0 && r.ConflictEdges == 0 {
		return errors.New("core.Coloring shipped no conflict edge on a graph with edges")
	}
	return graph.CheckColoring(g, r.Colors, r.MaxColor)
}

// baseColoring is the sublinear colouring baseline, held to a proper
// colouring.
func baseColoring(g *graph.Graph) func(*mpc.Cluster) (*sublinear.ColoringResult, error) {
	return checked(g, sublinear.Coloring, func(r *sublinear.ColoringResult) error { return graph.CheckColoring(g, r.Colors, r.MaxColor) })
}

// spanner: core.Spanner's subgraph must keep g's distances from 4 sampled
// sources (seed) within its reported stretch.
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

// apsp: core.BuildAPSPOracle's spanner must keep g's sampled distances
// within the oracle's stretch, as spanner's.
func apsp(g *graph.Graph, seed uint64) func(*mpc.Cluster) (*core.APSPOracle, error) {
	return checked(g, core.BuildAPSPOracle, func(o *core.APSPOracle) error { return oracleSpanner(g, o, seed) })
}

func oracleSpanner(g *graph.Graph, o *core.APSPOracle, seed uint64) error {
	return graph.CheckSpanner(g, o.Spanner, o.Stretch, 4, seed)
}

// approxMST and approxCut are the two approximations at eps. Their rows
// report the error against the reference, so no check holds them.
func approxMST(g *graph.Graph, eps float64) func(*mpc.Cluster) (*core.MSTApproxResult, error) {
	return func(c *mpc.Cluster) (*core.MSTApproxResult, error) { return core.ApproxMSTWeight(c, g, eps) }
}

func approxCut(g *graph.Graph, eps float64) func(*mpc.Cluster) (*core.MinCutResult, error) {
	return func(c *mpc.Cluster) (*core.MinCutResult, error) { return core.ApproxMinCut(c, g, eps) }
}

// edgeKey orders edges by (weight, u, v).
func edgeKey(e graph.Edge) prims.SortKey {
	return prims.SortKey{A: e.W, B: int64(e.U), C: int64(e.V)}
}

// placeSort is the place + sample-sort cell (E17, E34): g's edges
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
