package main

import (
	"fmt"

	"hetmpc"
)

// A cell is one façade call on one fresh cluster. cfg builds the cluster's
// Config anew for every execution (transports, trace collectors and metrics
// registries are single-use); run makes the façade call and hands back a
// validation closure, which the runner evaluates outside the timed region.
type cell struct {
	name   string // span name and text label, e.g. "core.mst_k512"
	metric string // per-layer metric carrying the cell's median seconds ("" = none)
	cfg    func() (hetmpc.Config, error)
	run    func(c *hetmpc.Cluster) (check func() error, err error)
}

// A workload is the fixed list of cells whose per-cell medians sum to
// wall_s, plus the ablation twins the traced run times beside them.
type workload struct {
	name  string
	cells []cell
	twins []cell
}

var workloadWhy = [][2]string{
	{"table1", "round- and churn-bound: the twelve n=512 Table-1 rows, ~1,500 barriers over tiny per-machine data; prims collectives, ForSmall dispatch and the allocator do the work"},
	{"scale", "compute- and bandwidth-bound: three E33-shaped cells (radix kernels, sketches, bulk delivery) plus a K=2048 cell where per-machine fixed costs times K dominate"},
	{"wire", "same engine over pipe and tcp transports: the deliver phase goes through the codec and a socket per machine, so in-process-only optimisations must not move it"},
	{"hetero", "every overlay on (straggler profile, fault plan, adaptive/speculative placement, trace, metrics): the only end-to-end cover for sched, fault, trace and metrics"},
}

func workloadNames() []string {
	names := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		names[i] = w[0]
	}
	return names
}

// buildWorkload generates the workload's inputs and reference solutions
// from seed (both are part of setup_s) and returns its cells. div divides
// every size; the benchmark always runs at div = 1, the package test at 8.
func buildWorkload(name string, seed uint64, div int) (*workload, error) {
	switch name {
	case "table1":
		return buildTable1(seed, div), nil
	case "scale":
		return buildScale(seed, div), nil
	case "wire":
		return buildWire(seed, div), nil
	case "hetero":
		return buildHetero(seed, div), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// plain is the default-cluster Config every workload starts from: the seed
// generates the inputs and seeds the cluster, nothing else.
func plain(g *hetmpc.Graph, k int, seed uint64) func() (hetmpc.Config, error) {
	return func() (hetmpc.Config, error) {
		return hetmpc.Config{N: g.N, M: g.M(), K: k, Seed: seed}, nil
	}
}

func noLarge(g *hetmpc.Graph, seed uint64) func() (hetmpc.Config, error) {
	return func() (hetmpc.Config, error) {
		return hetmpc.Config{N: g.N, M: g.M(), NoLarge: true, Seed: seed}, nil
	}
}

// --- the façade calls, each paired with its validation ---

// mstRef is the exact reference an MST cell is checked against.
type mstRef struct {
	g      *hetmpc.Graph
	weight int64
}

func newMSTRef(g *hetmpc.Graph) mstRef {
	_, w := hetmpc.KruskalMSF(g)
	return mstRef{g, w}
}

func (r mstRef) check(edges []hetmpc.Edge, weight int64) error {
	if weight != r.weight {
		return fmt.Errorf("MST weight %d, Kruskal says %d", weight, r.weight)
	}
	var sum int64
	for _, e := range edges {
		sum += e.W
	}
	if sum != weight {
		return fmt.Errorf("MST edges weigh %d, result reports %d", sum, weight)
	}
	return hetmpc.CheckMST(r.g, edges)
}

type runFn = func(c *hetmpc.Cluster) (func() error, error)

func runMST(r mstRef) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.MST(c, r.g)
		if err != nil {
			return nil, err
		}
		return func() error { return r.check(res.Edges, res.Weight) }, nil
	}
}

func runBaselineMST(r mstRef) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.BaselineMST(c, r.g)
		if err != nil {
			return nil, err
		}
		return func() error { return r.check(res.Edges, res.Weight) }, nil
	}
}

// ccRef is the exact component count a connectivity cell must reproduce.
type ccRef struct {
	g     *hetmpc.Graph
	count int
}

func newCCRef(g *hetmpc.Graph) ccRef {
	_, n := hetmpc.Components(g)
	return ccRef{g, n}
}

func (r ccRef) check(labels []int, count int) error {
	if count != r.count {
		return fmt.Errorf("%d components, reference says %d", count, r.count)
	}
	distinct := map[int]struct{}{}
	for _, l := range labels {
		distinct[l] = struct{}{}
	}
	if len(distinct) != r.count {
		return fmt.Errorf("%d distinct labels, reference says %d components", len(distinct), r.count)
	}
	for _, e := range r.g.Edges {
		if labels[e.U] != labels[e.V] {
			return fmt.Errorf("edge {%d,%d} joins labels %d and %d", e.U, e.V, labels[e.U], labels[e.V])
		}
	}
	return nil
}

func runCC(r ccRef) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.Connectivity(c, r.g)
		if err != nil {
			return nil, err
		}
		return func() error { return r.check(res.Labels, res.Components) }, nil
	}
}

func runBaselineCC(r ccRef) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.BaselineConnectivity(c, r.g)
		if err != nil {
			return nil, err
		}
		return func() error { return r.check(res.Labels, res.Components) }, nil
	}
}

func runMatching(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.MaximalMatching(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckMatching(g, res.Edges, true) }, nil
	}
}

func runBaselineMatching(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		edges, _, err := hetmpc.BaselineMatching(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckMatching(g, edges, true) }, nil
	}
}

// spannerSources is how many BFS sources CheckSpanner samples.
const spannerSources = 4

func runSpanner(g *hetmpc.Graph, k int, seed uint64) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.Spanner(c, g, k)
		if err != nil {
			return nil, err
		}
		return func() error {
			h := hetmpc.NewGraph(g.N, res.Edges, false)
			return hetmpc.CheckSpanner(g, h, res.Stretch, spannerSources, seed)
		}, nil
	}
}

func runBaselineSpanner(g *hetmpc.Graph, k int, seed uint64) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.BaselineSpanner(c, g, k)
		if err != nil {
			return nil, err
		}
		return func() error {
			h := hetmpc.NewGraph(g.N, res.Edges, false)
			return hetmpc.CheckSpanner(g, h, 2*k-1, spannerSources, seed)
		}, nil
	}
}

func runColoring(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.Coloring(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckColoring(g, res.Colors, res.MaxColor) }, nil
	}
}

func runBaselineColoring(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.BaselineColoring(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckColoring(g, res.Colors, res.MaxColor) }, nil
	}
}

func runMIS(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.MIS(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckMIS(g, res.Set) }, nil
	}
}

func runBaselineMIS(g *hetmpc.Graph) runFn {
	return func(c *hetmpc.Cluster) (func() error, error) {
		res, err := hetmpc.BaselineMIS(c, g)
		if err != nil {
			return nil, err
		}
		return func() error { return hetmpc.CheckMIS(g, res.Set) }, nil
	}
}

// --- table1 ---

// table1SpannerK is the spanner parameter of the Table-1 rows.
const table1SpannerK = 3

func buildTable1(seed uint64, div int) *workload {
	n, m := 512/div, 4096/div
	gU := hetmpc.ConnectedGNM(n, m, seed, false)
	gW := hetmpc.ConnectedGNM(n, m, seed, true)
	mst, cc := newMSTRef(gW), newCCRef(gU)
	sub := func(problem string, g *hetmpc.Graph, run runFn) cell {
		return cell{"sublinear." + problem, "sublinear." + problem + "_s", noLarge(g, seed), run}
	}
	het := func(problem string, g *hetmpc.Graph, run runFn) cell {
		return cell{"core." + problem, "core." + problem + "_s", plain(g, 0, seed), run}
	}
	return &workload{name: "table1", cells: []cell{
		sub("cc", gU, runBaselineCC(cc)),
		het("cc", gU, runCC(cc)),
		sub("mst", gW, runBaselineMST(mst)),
		het("mst", gW, runMST(mst)),
		sub("spanner", gU, runBaselineSpanner(gU, table1SpannerK, seed)),
		het("spanner", gU, runSpanner(gU, table1SpannerK, seed)),
		sub("coloring", gU, runBaselineColoring(gU)),
		het("coloring", gU, runColoring(gU)),
		sub("mis", gU, runBaselineMIS(gU)),
		het("mis", gU, runMIS(gU)),
		sub("matching", gU, runBaselineMatching(gU)),
		het("matching", gU, runMatching(gU)),
	}}
}

// --- scale ---

// Input sizes of the scale, wire and hetero workloads (table1's are the
// paper's). README.md records why they are what they are.
const (
	scaleMSTN, scaleMSTM     = 8192, 1 << 18
	scaleCCN, scaleCCM       = 4096, 16384
	scaleMatchN, scaleMatchM = 4096, 131072
	scaleWideN, scaleWideM   = 4096, 32768

	wireN, wireM, wireMatchM = 1024, 16384, 8192

	heteroN, heteroM, heteroMatchM, heteroCCM = 2048, 32768, 16384, 8192
)

func buildScale(seed uint64, div int) *workload {
	gMST := hetmpc.ConnectedGNM(scaleMSTN/div, scaleMSTM/div, seed, true)
	gCC := hetmpc.GNM(scaleCCN/div, scaleCCM/div, seed)
	gMatch := hetmpc.GNM(scaleMatchN/div, scaleMatchM/div, seed)
	gWide := hetmpc.ConnectedGNM(scaleWideN/div, scaleWideM/div, seed, true)
	return &workload{name: "scale", cells: []cell{
		{"core.mst_k512", "core.mst_k512_s", plain(gMST, 512/div, seed), runMST(newMSTRef(gMST))},
		{"core.cc_k512", "core.cc_k512_s", plain(gCC, 512/div, seed), runCC(newCCRef(gCC))},
		{"core.matching_k64", "core.matching_k64_s", plain(gMatch, 64/div, seed), runMatching(gMatch)},
		{"core.mst_k2048", "core.mst_k2048_s", plain(gWide, 2048/div, seed), runMST(newMSTRef(gWide))},
	}}
}

// --- wire ---

func overTransport(base func() (hetmpc.Config, error), spec string) func() (hetmpc.Config, error) {
	return func() (hetmpc.Config, error) {
		cfg, err := base()
		if err != nil {
			return cfg, err
		}
		cfg.Transport, err = hetmpc.ParseTransport(spec)
		if err != nil {
			return cfg, fmt.Errorf("transport %q: %w", spec, err)
		}
		return cfg, nil
	}
}

func buildWire(seed uint64, div int) *workload {
	n := wireN / div
	gW := hetmpc.ConnectedGNM(n, wireM/div, seed, true)
	gU := hetmpc.GNM(n, wireMatchM/div, seed)
	mst, match := runMST(newMSTRef(gW)), runMatching(gU)
	cfgW, cfgU := plain(gW, 0, seed), plain(gU, 0, seed)
	return &workload{
		name: "wire",
		cells: []cell{
			{"wire.mst_pipe", "wire.mst_pipe_s", overTransport(cfgW, "pipe"), mst},
			{"wire.matching_pipe", "wire.matching_pipe_s", overTransport(cfgU, "pipe"), match},
			{"wire.mst_tcp", "wire.mst_tcp_s", overTransport(cfgW, "tcp"), mst},
			{"wire.matching_tcp", "wire.matching_tcp_s", overTransport(cfgU, "tcp"), match},
		},
		twins: []cell{
			{"wire.mst_inproc", "wire.mst_inproc_s", cfgW, mst},
			{"wire.matching_inproc", "wire.matching_inproc_s", cfgU, match},
		},
	}
}

// --- hetero ---

// The overlays of the hetero workload, one bit each so the traced run can
// switch them on singly for the ablation twins.
const (
	ovProfile = 1 << iota // StragglerProfile(K, K/8, 8)
	ovFaults              // ParseFaultPlan("ckpt:2+rate:0.01")
	ovPlace               // ParsePlacement(placement)
	ovObserve             // NewTrace() and NewMetrics() attached
	ovAll     = ovProfile | ovFaults | ovPlace | ovObserve
)

const (
	heteroFaults    = "ckpt:2+rate:0.01"
	heteroAdaptive  = "adaptive:0.5"
	heteroSpeculate = "speculate:2"
)

func overlaid(g *hetmpc.Graph, seed uint64, overlays int, placement string) func() (hetmpc.Config, error) {
	return func() (hetmpc.Config, error) {
		cfg := hetmpc.Config{N: g.N, M: g.M(), Seed: seed}
		k := cfg.DeriveK()
		var err error
		if overlays&ovProfile != 0 {
			cfg.Profile = hetmpc.StragglerProfile(k, k/8, 8)
		}
		if overlays&ovFaults != 0 {
			if cfg.Faults, err = hetmpc.ParseFaultPlan(heteroFaults, k); err != nil {
				return cfg, fmt.Errorf("fault plan %q: %w", heteroFaults, err)
			}
		}
		if overlays&ovPlace != 0 {
			if cfg.Placement, err = hetmpc.ParsePlacement(placement); err != nil {
				return cfg, fmt.Errorf("placement %q: %w", placement, err)
			}
		}
		if overlays&ovObserve != 0 {
			cfg.Trace = hetmpc.NewTrace()
			cfg.Metrics = hetmpc.NewMetrics()
		}
		return cfg, nil
	}
}

func buildHetero(seed uint64, div int) *workload {
	n := heteroN / div
	gW := hetmpc.ConnectedGNM(n, heteroM/div, seed, true)
	gU := hetmpc.GNM(n, heteroMatchM/div, seed)
	gCC := hetmpc.GNM(n, heteroCCM/div, seed)
	mst, match, cc := runMST(newMSTRef(gW)), runMatching(gU), runCC(newCCRef(gCC))
	single := func(name string, overlay int) cell {
		return cell{name, "", overlaid(gW, seed, overlay, heteroAdaptive), mst}
	}
	return &workload{
		name: "hetero",
		cells: []cell{
			{"overlay.mst", "overlay.mst_s", overlaid(gW, seed, ovAll, heteroAdaptive), mst},
			{"overlay.matching", "overlay.matching_s", overlaid(gU, seed, ovAll, heteroSpeculate), match},
			{"overlay.cc", "overlay.cc_s", overlaid(gCC, seed, ovAll, heteroAdaptive), cc},
		},
		// The plain twins are the cells with every overlay off; the only.*
		// twins switch one overlay on over the MST cell.
		twins: []cell{
			{"plain.mst", "", plain(gW, 0, seed), mst},
			{"plain.matching", "", plain(gU, 0, seed), match},
			{"plain.cc", "", plain(gCC, 0, seed), cc},
			single("only.profile", ovProfile),
			single("only.faults", ovFaults),
			single("only.adaptive", ovPlace),
			single("only.observe", ovObserve),
		},
	}
}
