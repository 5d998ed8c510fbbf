package exp

import (
	"fmt"

	"hetmpc/internal/fault"
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
// mpc.ParseProfile, fault.ParsePlan, sched.Parse and wire.Parse. An
// experiment that sweeps an axis pins it on every cluster; on any other, the
// spec reaches every cluster, tags the artifact and renames its file, so
// e.g. Table 1 under "straggler:2:8" never clobbers the committed baseline.
// A spec that reaches some but not all of a run's clusters is an error. The
// baseline spellings ("uniform", "none", "cap", "inproc") parse to the
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
// experiment builds a cluster (every cell goes through build), and therefore
// the owner of every cluster the run built, of how many of them each Env
// override reached, and of the run's metrics registry.
type run struct {
	env      Env
	reg      *metrics.Registry // nil unless env.Metrics; one per run, counters are cumulative
	clusters []*mpc.Cluster
	// reached counts, per axis, the clusters the Env spec reached: those
	// that left the axis open and got a non-baseline value from the spec.
	reached [len(axes)]int
}

// axes names the overridable Env specs, in Artifact tag order.
var axes = [...]string{"profile", "faults", "placement", "transport"}

// build fills every axis cfg leaves open from the run's Env, constructs the
// cluster and records it with the run. The baseline spellings parse to nil:
// no override.
func (rn *run) build(cfg mpc.Config) (*mpc.Cluster, error) {
	var hit [len(axes)]bool
	var err error
	if rn.env.Profile != "" && cfg.Profile == nil {
		if cfg.Profile, err = mpc.ParseProfile(rn.env.Profile, cfg.DeriveK()); err != nil {
			return nil, err
		}
		hit[0] = cfg.Profile != nil
	}
	if rn.env.Faults != "" && cfg.Faults == nil {
		if cfg.Faults, err = fault.ParsePlan(rn.env.Faults, cfg.DeriveK()); err != nil {
			return nil, err
		}
		hit[1] = cfg.Faults != nil
	}
	if rn.env.Placement != "" && cfg.Placement == nil {
		if cfg.Placement, err = sched.Parse(rn.env.Placement); err != nil {
			return nil, err
		}
		hit[2] = cfg.Placement != nil
	}
	if rn.env.Transport != "" && cfg.Transport == nil {
		// Each cluster gets its own transport instance: links are per-cluster
		// resources, not shareable across concurrently live clusters.
		if cfg.Transport, err = wire.Parse(rn.env.Transport); err != nil {
			return nil, err
		}
		hit[3] = cfg.Transport != nil
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
	for i, h := range hit {
		if h {
			rn.reached[i]++
		}
	}
	return c, nil
}

// tag stamps a with every Env spec that reached the run's clusters. A spec
// that reached some but not all of them is an error: the experiment's rows
// would compare cells run under different settings.
func (rn *run) tag(a *Artifact) error {
	specs := [...]string{rn.env.Profile, rn.env.Faults, rn.env.Placement, rn.env.Transport}
	tags := [...]*string{&a.Profile, &a.Faults, &a.Placement, &a.Transport}
	for i, n := range rn.reached {
		if n > 0 && n < len(rn.clusters) {
			return fmt.Errorf("exp: %s: the %s override %q reached %d of %d clusters", a.Exp, axes[i], specs[i], n, len(rn.clusters))
		}
		if n > 0 {
			*tags[i] = specs[i]
		}
	}
	return nil
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
// closed before Run returns, on success and on error. An override that
// reached only some of the clusters is an error naming the experiment, the
// axis and how many of them (run.tag).
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

	a := &Artifact{Schema: SchemaVersion, Exp: id, Seed: seed, Table: table}
	if err := rn.tag(a); err != nil {
		return nil, nil, err
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
