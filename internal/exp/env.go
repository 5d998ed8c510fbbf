package exp

import (
	"fmt"

	"hetmpc/internal/core"
	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/metrics"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
	"hetmpc/internal/wire"
)

// Env is the cross-cutting configuration of an experiment run: everything
// hetbench's model and observability flags select, as one value. The zero
// Env is the paper's setting — uniform reliable machines, capacity-
// proportional placement, in-process delivery, no trace, no metrics — and
// two different Envs can run side by side in one process.
//
// Profile, Faults, Placement and Transport are specs in the syntax of
// mpc.ParseProfile, fault.ParsePlan, sched.Parse and wire.Parse. Each one
// reaches every cluster of the run that does not pin that axis itself
// (E17–E25 and E32 pin theirs), tags the artifact and renames its file, so
// e.g. Table 1 under "straggler:2:8" never clobbers the committed baseline.
// The baseline spellings ("uniform", "none", "cap", "inproc") parse to the
// default and leave no tag.
//
// Trace and Metrics observe without perturbing: the artifact gains the
// per-phase critical-path summary (DESIGN.md §9) or the registry snapshot
// (DESIGN.md §12) and keeps its baseline name and bit-identical model
// numbers.
type Env struct {
	Profile, Faults, Placement, Transport string
	Trace, Metrics                        bool
}

// specProbeK is the machine count Validate checks the specs against: large
// enough that machine-addressed clauses (custom:…, crash:…, slow:…) of any
// realistic cluster pass here and are checked for real — against the
// cluster's true K — at build time.
const specProbeK = 1 << 16

// Validate reports the first spec of e that does not parse.
func (e Env) Validate() error {
	if _, err := mpc.ParseProfile(e.Profile, specProbeK); err != nil {
		return err
	}
	if _, err := fault.ParsePlan(e.Faults, specProbeK); err != nil {
		return err
	}
	if _, err := sched.Parse(e.Placement); err != nil {
		return err
	}
	_, err := wire.Parse(e.Transport)
	return err
}

// run is the handle one execution hands its experiment: the only way an
// experiment builds a cluster, and therefore the owner of every cluster the
// run built, of which Env overrides actually reached one, and of the run's
// metrics registry.
type run struct {
	env      Env
	reg      *metrics.Registry // nil unless env.Metrics; one per run, counters are cumulative
	clusters []*mpc.Cluster
	// applied holds the env specs that reached at least one cluster.
	// Experiments that pin their own Profile/Faults/Placement/Transport
	// ignore the override; their artifacts must not be tagged (and renamed)
	// as if they ran under it.
	applied Env
}

func (rn *run) newHet(n, m int, f float64, seed uint64) (*mpc.Cluster, error) {
	return rn.build(mpc.Config{N: n, M: m, F: f, Seed: seed})
}

func (rn *run) newSub(n, m int, seed uint64) (*mpc.Cluster, error) {
	return rn.build(mpc.Config{N: n, M: m, NoLarge: true, Seed: seed})
}

// build fills every axis cfg leaves open from the run's Env, constructs the
// cluster and records it with the run.
func (rn *run) build(cfg mpc.Config) (*mpc.Cluster, error) {
	// The baseline spellings parse to nil: no override, no tag.
	applied := rn.applied
	if rn.env.Profile != "" && cfg.Profile == nil {
		p, err := mpc.ParseProfile(rn.env.Profile, cfg.DeriveK())
		if err != nil {
			return nil, err
		}
		if cfg.Profile = p; p != nil {
			applied.Profile = rn.env.Profile
		}
	}
	if rn.env.Faults != "" && cfg.Faults == nil {
		p, err := fault.ParsePlan(rn.env.Faults, cfg.DeriveK())
		if err != nil {
			return nil, err
		}
		if cfg.Faults = p; p != nil {
			applied.Faults = rn.env.Faults
		}
	}
	if rn.env.Placement != "" && cfg.Placement == nil {
		p, err := sched.Parse(rn.env.Placement)
		if err != nil {
			return nil, err
		}
		if cfg.Placement = p; p != nil {
			applied.Placement = rn.env.Placement
		}
	}
	if rn.env.Transport != "" && cfg.Transport == nil {
		// Each cluster gets its own transport instance: links are per-cluster
		// resources, not shareable across concurrently live clusters.
		tr, err := wire.Parse(rn.env.Transport)
		if err != nil {
			return nil, err
		}
		if cfg.Transport = tr; tr != nil {
			applied.Transport = rn.env.Transport
		}
	}
	if rn.env.Trace && cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = rn.reg
	}
	c, err := mpc.New(cfg)
	if err != nil {
		return nil, err
	}
	rn.clusters = append(rn.clusters, c)
	rn.applied = applied
	return c, nil
}

// The three cells most experiments are built from: run the algorithm on c
// and hold its output to the exact reference before a row is emitted.

// exactMST runs core.MST on c: the result must be a spanning forest of g of
// weight want (Kruskal's, which the caller computes once per graph).
func exactMST(c *mpc.Cluster, g *graph.Graph, want int64) (*core.MSTResult, error) {
	r, err := core.MST(c, g)
	if err != nil {
		return nil, err
	}
	if r.Weight != want {
		return nil, fmt.Errorf("MST weight %d, want %d", r.Weight, want)
	}
	if err := graph.CheckSpanningForest(g, r.Edges); err != nil {
		return nil, err
	}
	return r, nil
}

// exactCC runs core.Connectivity on c: it must count want components.
func exactCC(c *mpc.Cluster, g *graph.Graph, want int) (*core.ConnectivityResult, error) {
	r, err := core.Connectivity(c, g)
	if err != nil {
		return nil, err
	}
	if r.Components != want {
		return nil, fmt.Errorf("%d components, want %d", r.Components, want)
	}
	return r, nil
}

// maximalMatching runs core.MaximalMatching on c: the result must be a
// matching of g that no edge of g can extend.
func maximalMatching(c *mpc.Cluster, g *graph.Graph) (*core.MatchingResult, error) {
	r, err := core.MaximalMatching(c, g)
	if err != nil {
		return nil, err
	}
	if err := graph.CheckMatching(g, r.Edges, true); err != nil {
		return nil, err
	}
	return r, nil
}

// close releases every cluster the run built: clusters on a real transport
// hold open sockets (no-op for inproc).
func (rn *run) close() {
	for _, c := range rn.clusters {
		c.Close()
	}
}

// experiments is the registry: every experiment by id, in the canonical
// "run everything" order.
var experiments = []struct {
	id string
	fn func(rn *run, seed uint64) (*Table, error)
}{
	{"table1", (*run).table1},
	{"e2", (*run).e2MSTDensity},
	{"e3", (*run).e3MSTSuperlinear},
	{"e4", (*run).e4KKT},
	{"e5", (*run).e5Spanner},
	{"e6", (*run).e6ModifiedBS},
	{"e7", (*run).e7Matching},
	{"e8", (*run).e8Filtering},
	{"e9", (*run).e9Connectivity},
	{"e10", (*run).e10ApproxMST},
	{"e11", (*run).e11MinCut},
	{"e12", (*run).e12MIS},
	{"e13", (*run).e13Coloring},
	{"e14", (*run).e14TwoCycle},
	{"e15", (*run).e15APSP},
	{"e16", (*run).e16MSTAblation},
	{"e17", (*run).e17SkewPlacement},
	{"e18", (*run).e18Stragglers},
	{"e19", (*run).e19Bimodal},
	{"e20", (*run).e20CrashRate},
	{"e21", (*run).e21CheckpointInterval},
	{"e22", (*run).e22StragglerCrash},
	{"e23", (*run).e23PlacementPolicies},
	{"e24", (*run).e24SpeculationDial},
	{"e25", (*run).e25PlacementFaults},
	{"e26", (*run).e26PhaseBreakdown},
	{"e27", (*run).e27CriticalPath},
	{"e28", (*run).e28TraceGuidedPlacement},
	{"e29", (*run).e29AdaptivePolicyGrid},
	{"e30", (*run).e30MisreportedProfile},
	{"e31", (*run).e31AdaptiveTransientSlowdown},
	{"e32", (*run).e32TransportSweep},
}

// IDs returns the experiment ids in registry order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id under e and wraps its table in an
// Artifact with the model metrics attached. The second result is the
// raw per-round trace: the concatenated records of every traced cluster, in
// build order — the timeline hetbench -traceout streams to JSONL or renders
// as a Perfetto file; empty when no cluster carried a collector (set
// e.Trace to trace everything). Every cluster the experiment built is
// closed before Run returns, on success and on error.
//
// The artifact is a pure function of (id, seed, e): concurrent Runs are
// independent, and no field reads the host.
func (e Env) Run(id string, seed uint64) (*Artifact, []trace.Round, error) {
	var fn func(*run, uint64) (*Table, error)
	for _, x := range experiments {
		if x.id == id {
			fn = x.fn
			break
		}
	}
	if fn == nil {
		return nil, nil, fmt.Errorf("exp: unknown experiment %q", id)
	}
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	rn := &run{env: e}
	if e.Metrics {
		rn.reg = metrics.New()
	}
	defer rn.close()

	table, err := fn(rn, seed)
	if err != nil {
		return nil, nil, err
	}

	a := &Artifact{
		Schema:    SchemaVersion,
		Exp:       id,
		Seed:      seed,
		Profile:   rn.applied.Profile,
		Faults:    rn.applied.Faults,
		Placement: rn.applied.Placement,
		Transport: rn.applied.Transport,
		Table:     table,
	}
	var rounds []trace.Round
	traced := 0
	makespan := 0.0
	for _, c := range rn.clusters {
		a.Model.add(c.Stats())
		if tr := c.Trace(); tr != nil {
			traced++
			rounds = append(rounds, tr.Rounds()...)
			// Sum each cluster's contributions separately, then add the
			// subtotals in build order — the exact grouping ModelStats.add
			// uses for Stats.Makespan. A single running total over the
			// concatenated records would regroup the float additions and
			// drift in the low bits on non-dyadic per-word costs.
			sub := 0.0
			for _, r := range tr.Rounds() {
				sub += r.Makespan
			}
			makespan += sub
		}
	}
	if traced > 0 {
		s := trace.Summarize(rounds)
		a.Trace = &TraceStats{
			Clusters: traced,
			Rounds:   s.Rounds,
			Words:    s.Words,
			Makespan: makespan,
			Phases:   s.Phases,
		}
	}
	if e.Metrics {
		a.Metrics = rn.reg.Snapshot()
	}
	return a, rounds, nil
}
