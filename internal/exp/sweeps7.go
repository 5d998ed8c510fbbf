package exp

import (
	"fmt"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The E29–E31 sweeps exercise adaptive placement (DESIGN.md §10): the
// sched.Adaptive policy re-estimates every machine's effective per-word
// cost online (an EWMA over the rounds the run actually executes) and
// recomputes the throughput-style split at each round barrier. The
// experiments pin down its contract from three sides: with a truthful
// profile it degenerates to static throughput bit-identically (E29), with
// a misreported profile it is the only policy that recovers the makespan
// the static splits leave on the table (E30), and under transient
// slowdown windows it tracks the effective speeds through the window and
// back out (E31). Placement still moves data, never correctness: every
// cell validates its output exactly, and the traced cells re-prove the
// conservation contract under mid-run share switches.

// e29AdaptivePolicyGrid reruns the E23 policy × skew-profile grid with
// adaptive placement in the lineup. The declared profiles are truthful
// here, so the measured per-word costs reproduce the declared ones
// exactly and adaptive must land bit-identically on static throughput —
// the grid is a regression test that the estimator's steady state is the
// declared profile, cell by cell. Every cell runs traced and re-proves
// trace conservation under the (no-op) round-barrier share refresh.
func (rn *run) e29AdaptivePolicyGrid(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	t := &Table{
		Title: fmt.Sprintf("E29 — adaptive vs static placement × skew profiles (place + sample sort), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "rounds", "est rounds", "makespan", "vs cap",
			"imbalance"},
	}
	g := graph.GNMWeighted(n, m, seed)
	profiles := []struct {
		name string
		gen  func(k int) *mpc.Profile
	}{
		{"zipf:0.8", func(k int) *mpc.Profile { return beefyCoordinator(mpc.ZipfProfile(k, 0.8, 0.05)) }},
		{"bimodal:0.25:4", func(k int) *mpc.Profile { return beefyCoordinator(mpc.BimodalProfile(k, 0.25, 4)) }},
		{"straggler:2:8", func(k int) *mpc.Profile { return beefyCoordinator(mpc.StragglerProfile(k, 2, 8)) }},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Adaptive{Alpha: sched.DefaultAlpha}, sched.Speculate{R: 2}}
	for _, prof := range profiles {
		var capOut []graph.Edge
		var capStats, thrStats mpc.Stats
		for _, pol := range policies {
			c, out, err := rn.e23Workload(g, seed, prof.gen, pol, trace.New())
			if err != nil {
				return nil, fmt.Errorf("e29: %s/%s: %w", prof.name, pol.Name(), err)
			}
			st := c.Stats()
			if _, err := traceConserved(fmt.Sprintf("e29: %s/%s", prof.name, pol.Name()), c); err != nil {
				return nil, err
			}
			switch pol.Name() {
			case "cap":
				capOut, capStats = out, st
			default:
				if len(out) != len(capOut) {
					return nil, fmt.Errorf("e29: %s/%s: output length %d, cap had %d", prof.name, pol.Name(), len(out), len(capOut))
				}
				for i := range out {
					if out[i] != capOut[i] {
						return nil, fmt.Errorf("e29: %s/%s: sorted output diverged from cap at item %d", prof.name, pol.Name(), i)
					}
				}
				if st.Rounds != capStats.Rounds {
					return nil, fmt.Errorf("e29: %s/%s: round structure changed: %d vs cap %d", prof.name, pol.Name(), st.Rounds, capStats.Rounds)
				}
			}
			estRounds := 0
			if est := c.PlacementEstimator(); est != nil {
				estRounds = est.Rounds()
				// Truthful profile: measured cost == declared cost exactly,
				// so the adaptive run must be bit-identical to throughput.
				if st.Makespan != thrStats.Makespan || st.TotalWords != thrStats.TotalWords {
					return nil, fmt.Errorf("e29: %s: adaptive (makespan %v, words %d) diverged from static throughput (%v, %d) under a truthful profile",
						prof.name, st.Makespan, st.TotalWords, thrStats.Makespan, thrStats.TotalWords)
				}
			}
			if pol.Name() == "throughput" {
				thrStats = st
			}
			t.AddRow(prof.name, pol.Name(), st.Rounds, estRounds, st.Makespan,
				st.Makespan/capStats.Makespan, c.BusyImbalance())
		}
	}
	t.Notes = append(t.Notes,
		"truthful declared profiles: the estimator measures back exactly what was declared, so every adaptive cell is bit-identical to static throughput (asserted)",
		"est rounds counts the exchange rounds the EWMA actually observed; every cell is traced and re-proves conservation under the round-barrier share refresh",
	)
	return t, nil
}

// e30Workload runs the E23 place+sort workload on an 8-machine cluster
// whose declared profile is uniform but whose last two machines actually
// run factor× slower for the whole run (a whole-run fault.Slowdown window
// — invisible to any static policy, whose shares are fixed at New, but
// visible to the adaptive estimator through the measured per-word costs).
// K is pinned to 8 so the route rounds dominate and the placement split is
// what the makespan measures.
func (rn *run) e30Workload(g *graph.Graph, seed uint64, factor float64, pol sched.Policy, tr *trace.Collector) (*mpc.Cluster, []graph.Edge, error) {
	const k, wholeRun = 8, 1 << 20
	cfg := mpc.Config{N: g.N, M: g.M(), K: k, Seed: seed, Placement: pol, Trace: tr}
	cfg.Profile = beefyCoordinator(mpc.UniformProfile(k))
	cfg.Faults = &fault.Plan{Slowdowns: []fault.Slowdown{
		{Machine: k - 2, From: 1, To: wholeRun, Factor: factor},
		{Machine: k - 1, From: 1, To: wholeRun, Factor: factor},
	}}
	c, err := rn.build(cfg)
	if err != nil {
		return nil, nil, err
	}
	data, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, nil, err
	}
	sorted, err := prims.Sort(c, data, prims.EdgeWords, e17SortKey)
	if err != nil {
		return nil, nil, err
	}
	if !prims.IsGloballySorted(sorted, e17SortKey) {
		return nil, nil, fmt.Errorf("sort postcondition violated")
	}
	return c, prims.Flatten(sorted), nil
}

// e30MisreportedProfile is the scenario adaptive placement exists for: the
// declared profile says the cluster is uniform, but two of the eight
// machines actually run 2–10× slower. Static cap and throughput both
// believe the declaration and split evenly, so every round waits for the
// slow pair; the adaptive estimator measures the real per-word costs off
// the first rounds and shifts the split, recovering most of the loss. The
// acceptance gate: at 4× (and above) misreporting, adaptive's makespan is
// at most 0.8× every static policy's.
func (rn *run) e30MisreportedProfile(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	t := &Table{
		Title: fmt.Sprintf("E30 — misreported profile: declared uniform, 2 of 8 machines actually slow (place + sample sort), n=%d m=%d", n, m),
		Header: []string{"actual slowdown", "policy", "rounds", "makespan", "vs cap",
			"spec words"},
	}
	g := graph.GNMWeighted(n, m, seed)
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Speculate{R: 2}, sched.Adaptive{Alpha: sched.DefaultAlpha}}
	for _, factor := range []float64{2, 4, 10} {
		label := fmt.Sprintf("%g×", factor)
		var capOut []graph.Edge
		var capStats, thrStats mpc.Stats
		for _, pol := range policies {
			c, out, err := rn.e30Workload(g, seed, factor, pol, trace.New())
			if err != nil {
				return nil, fmt.Errorf("e30: %s/%s: %w", label, pol.Name(), err)
			}
			st := c.Stats()
			if _, err := traceConserved(fmt.Sprintf("e30: %s/%s", label, pol.Name()), c); err != nil {
				return nil, err
			}
			switch pol.Name() {
			case "cap":
				capOut, capStats = out, st
			default:
				if len(out) != len(capOut) {
					return nil, fmt.Errorf("e30: %s/%s: output length %d, cap had %d", label, pol.Name(), len(out), len(capOut))
				}
				for i := range out {
					if out[i] != capOut[i] {
						return nil, fmt.Errorf("e30: %s/%s: sorted output diverged from cap at item %d", label, pol.Name(), i)
					}
				}
				if st.Rounds != capStats.Rounds {
					return nil, fmt.Errorf("e30: %s/%s: round structure changed: %d vs cap %d", label, pol.Name(), st.Rounds, capStats.Rounds)
				}
			}
			if pol.Name() == "throughput" {
				thrStats = st
			}
			if c.PlacementEstimator() != nil && factor >= 4 {
				// The acceptance gate: adaptive must recover at least 20% of
				// makespan against every static split once the declaration is
				// 4× wrong. (cap and throughput coincide here — both trust
				// the uniform declaration.)
				for _, static := range []struct {
					name     string
					makespan float64
				}{{"cap", capStats.Makespan}, {"throughput", thrStats.Makespan}} {
					if st.Makespan > 0.8*static.makespan {
						return nil, fmt.Errorf("e30: %s: adaptive makespan %g is not <= 0.8× static %s %g",
							label, st.Makespan, static.name, static.makespan)
					}
				}
			}
			t.AddRow(label, pol.Name(), st.Rounds, st.Makespan,
				st.Makespan/capStats.Makespan, st.SpeculationWords)
		}
	}
	t.Notes = append(t.Notes,
		"cap and throughput coincide: both trust the uniform declaration and split evenly, so every round waits for the slow pair",
		"adaptive measures the real per-word costs off the early rounds and re-splits; at >=4× misreporting its makespan is asserted <= 0.8× every static policy's",
	)
	return t, nil
}

// e31AdaptiveTransientSlowdown puts adaptive placement under the E25-style
// dynamic case: a truthful straggler cluster whose fastest machine opens a
// transient 16× slowdown window mid-run (rounds 5–40). Static throughput
// keeps feeding it a full share through the window; the adaptive estimator
// tracks the effective cost up as the window opens and back down after it
// closes, and must beat static throughput's makespan under both the pure
// slowdown plan and the slowdown + checkpoint-cadence plan. The MST weight
// is validated exact in every cell.
func (rn *run) e31AdaptiveTransientSlowdown(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E31 — adaptive placement under transient slowdown windows (MST), n=%d m=%d (straggler:2:8 cluster)", n, m),
		Header: []string{"fault plan", "policy", "rounds", "est rounds",
			"spec words", "makespan", "vs cap"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	plans := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"slow:0:5:40:16", func() *fault.Plan {
			return &fault.Plan{Slowdowns: []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}}
		}},
		{"ckpt:8+slow:0:5:40:16", func() *fault.Plan {
			return &fault.Plan{Interval: 8, Slowdowns: []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}}
		}},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Speculate{R: 2}, sched.Adaptive{Alpha: sched.DefaultAlpha}}
	for _, pl := range plans {
		capMakespan, thrMakespan := 0.0, 0.0
		for _, pol := range policies {
			cfg := mpc.Config{N: n, M: m, Seed: seed, Placement: pol, Trace: trace.New()}
			cfg.Profile = beefyCoordinator(mpc.StragglerProfile(cfg.DeriveK(), 2, 8))
			cfg.Faults = pl.plan()
			c, err := rn.build(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := exactMST(c, g, exact); err != nil {
				return nil, fmt.Errorf("e31: %s/%s: %w", pl.name, pol.Name(), err)
			}
			st := c.Stats()
			if _, err := traceConserved(fmt.Sprintf("e31: %s/%s", pl.name, pol.Name()), c); err != nil {
				return nil, err
			}
			estRounds := 0
			switch pol.Name() {
			case "cap":
				capMakespan = st.Makespan
			case "throughput":
				thrMakespan = st.Makespan
			}
			if est := c.PlacementEstimator(); est != nil {
				estRounds = est.Rounds()
				if st.Makespan >= thrMakespan {
					return nil, fmt.Errorf("e31: %s: adaptive makespan %g did not beat static throughput %g",
						pl.name, st.Makespan, thrMakespan)
				}
			}
			t.AddRow(pl.name, pol.Name(), st.Rounds, estRounds,
				st.SpeculationWords, st.Makespan, st.Makespan/capMakespan)
		}
	}
	t.Notes = append(t.Notes,
		"the MST weight is validated exact in every cell: adaptive re-splitting may move data, never correctness",
		"static shares are fixed before the window opens; the estimator tracks the effective per-word cost up into the window and back out after it closes (asserted: adaptive beats static throughput under both plans)",
	)
	return t, nil
}
