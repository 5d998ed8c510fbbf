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

// The E23–E25 sweeps exercise the placement-policy subsystem (DESIGN.md
// §8): pluggable work placement across heterogeneous machines — the
// capacity-proportional cap default, the min-makespan throughput split, and
// speculate:R's first-copy-wins redundant execution. The invariant every
// row re-asserts: placement moves data, never correctness — outputs are
// validated against the exact references under every policy, and the
// speculative copies are charged honestly (speculation words, partner busy
// time) rather than conjured for free.
//
// The E29–E31 sweeps exercise adaptive placement (DESIGN.md §10): the
// sched.Adaptive policy re-estimates every machine's effective per-word
// cost online (an EWMA over the rounds the run actually executes) and
// recomputes the throughput-style split at each round barrier. The
// experiments pin down its contract from three sides: with a truthful
// profile it degenerates to static throughput bit-identically (E29), with
// a misreported profile it is the only policy that recovers the makespan
// the static splits leave on the table (E30), and under transient
// slowdown windows it tracks the effective speeds through the window and
// back out (E31). The traced cells re-prove the conservation contract
// under mid-run share switches.
//
// MST is where speculation still has something to rescue (E24, E25, E28,
// E31): a plain sample sort's traffic, its replies included, follows the
// items a machine holds, which static throughput shares already balance
// (E23), while MST's aggregations and disseminations route by key — a
// key's partials and requests meet on one machine wherever the shares put
// it.

// e23PlacementPolicies crosses the three placement policies with the three
// canonical skew profiles under the placement+sort workload: cap pays the
// straggler tax, throughput irons static skew out of all three rounds — a
// sample, the reply to it and the route all follow the items a machine
// holds — and speculation finds nothing left to mirror (E24 turns its dial
// on MST, where rounds routed by key remain). Every row must reproduce the
// cap row's sorted output and round structure exactly.
func (rn *run) e23PlacementPolicies(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	t := &Table{
		Title: fmt.Sprintf("E23 — placement policies × skew profiles (place + sample sort), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "rounds", "makespan", "vs cap",
			"imbalance", "spec words"},
	}
	g := graph.GNMWeighted(n, m, seed)
	for _, prof := range skews {
		var row capRow
		for _, pol := range []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 2}} {
			cfg := profiled(g, seed, prof, true)
			cfg.Placement = pol
			c, sorted, err := cell(rn, cfg, placeSort(g))
			if err == nil {
				err = row.check(pol, prims.Flatten(sorted), c.Stats())
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof, pol.Name(), err)
			}
			st := c.Stats()
			t.AddRow(prof, pol.Name(), st.Rounds, st.Makespan,
				st.Makespan/row.stats.Makespan, c.BusyImbalance(), st.SpeculationWords)
		}
	}
	t.Notes = append(t.Notes,
		"every policy reproduces the cap row's sorted output and round count exactly; only placement and the clock move",
		"zipf skews capacity only, so throughput clips to cap and the ratio stays 1; speed skew is where placement pays",
		"speculate:2 launches no copy: every round of a sample sort follows the placed items, so throughput leaves it no slow shard a fast machine could beat",
	)
	return t, nil
}

// e24SpeculationDial sweeps the redundancy dial R = 0..4 under straggler
// profiles: R = 0 is pure throughput placement (the rounds whose traffic
// follows the placed edges balance, the rounds routed by key still wait for
// the stragglers), and each additional speculated shard shaves those until
// every straggler is covered — at an honestly charged word cost. Every
// speculate row must reproduce the cap row's tree edge for edge and its round
// count, move exactly R = 0's algorithm words, and beat cap's makespan.
func (rn *run) e24SpeculationDial(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E24 — speculation dial R=0..4 under straggler profiles (MST), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "makespan", "vs cap",
			"spec words", "words"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	policies := []sched.Policy{sched.Cap{}, sched.Speculate{R: 0}, sched.Speculate{R: 1},
		sched.Speculate{R: 2}, sched.Speculate{R: 3}, sched.Speculate{R: 4}}
	for _, prof := range []string{"straggler:2:8", "straggler:4:16"} {
		var row capRow
		var thrWords int64
		for _, pol := range policies {
			cfg := profiled(g, seed, prof, true)
			cfg.Placement = pol
			c, r, err := cell(rn, cfg, mst(g, exact))
			if err == nil {
				prims.SortLocal(r.Edges, edgeKey)
				err = row.check(pol, r.Edges, c.Stats())
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof, pol.Name(), err)
			}
			st := c.Stats()
			// Algorithm words are no longer placement-independent (DESIGN.md
			// §8): Sort's reply is a machine's own cuts, and the cuts follow
			// the splitters, which follow the shares. Every speculate row has
			// R = 0's shares, so R = 0's words are the reference; cap's differ.
			if s, ok := pol.(sched.Speculate); ok {
				if s.R == 0 {
					thrWords = st.TotalWords
				}
				if st.TotalWords != thrWords {
					return nil, fmt.Errorf("%s/%s: words %d vs R=0 %d", prof, pol.Name(), st.TotalWords, thrWords)
				}
				if st.Makespan >= row.stats.Makespan {
					return nil, fmt.Errorf("%s/%s: makespan %g did not beat cap %g", prof, pol.Name(), st.Makespan, row.stats.Makespan)
				}
			}
			t.AddRow(prof, pol.Name(), st.Makespan, st.Makespan/row.stats.Makespan,
				st.SpeculationWords, st.TotalWords)
		}
	}
	t.Notes = append(t.Notes,
		"R=0 is pure throughput placement; R>=1 additionally mirrors the slowest per-round shards, first-copy-wins",
		"spec words are the honestly charged redundant traffic; algorithm words (last column) are identical in every speculate row",
		"the cap row's words differ: the splitters follow the placement shares, and Sort's reply to a machine is the cuts of its own run",
		"every speculate row reproduces the cap row's tree edge for edge; its weight is validated exact in every row",
	)
	return t, nil
}

// e25PlacementFaults crosses the placement policies with two fault
// plans under MST on a straggler cluster: the E20 crash plan (checkpoints +
// seed-derived crashes) and a transient slowdown window on a fast machine —
// the case static placement cannot see coming, because shares are fixed
// before the run while the window opens mid-flight. Speculation reads the
// effective per-round costs, so it adapts to the window and must beat
// static throughput there. The MST weight is validated exact in every cell.
func (rn *run) e25PlacementFaults(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E25 — placement × fault interaction under MST, n=%d m=%d (straggler:2:8 cluster)", n, m),
		Header: []string{"fault plan", "policy", "rounds", "crashes", "recovery rounds",
			"spec words", "makespan", "vs cap"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	window := []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"ckpt:8+rate:0.002", &fault.Plan{Interval: 8, CrashRate: 0.002}},
		{"ckpt:8+slow:0:5:40:16", &fault.Plan{Interval: 8, Slowdowns: window}},
	}
	for _, pl := range plans {
		capMakespan, thrMakespan := 0.0, 0.0
		for _, pol := range []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 2}} {
			cfg := profiled(g, seed, "straggler:2:8", true)
			cfg.Placement, cfg.Faults = pol, pl.plan
			c, _, err := cell(rn, cfg, mst(g, exact))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pl.name, pol.Name(), err)
			}
			st := c.Stats()
			switch pol.Name() {
			case "cap":
				capMakespan = st.Makespan
			case "throughput":
				thrMakespan = st.Makespan
			default:
				if st.Makespan >= thrMakespan {
					return nil, fmt.Errorf("%s: speculation makespan %g did not beat static throughput %g",
						pl.name, st.Makespan, thrMakespan)
				}
			}
			t.AddRow(pl.name, pol.Name(), st.Rounds, st.Crashes, st.RecoveryRounds,
				st.SpeculationWords, st.Makespan, st.Makespan/capMakespan)
		}
	}
	t.Notes = append(t.Notes,
		"the MST weight is validated exact in every cell: neither placement nor crash recovery may change the output",
		"the slow-window plan is the dynamic case: static shares are fixed pre-run, speculation reads per-round effective costs and adapts",
	)
	return t, nil
}

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
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Adaptive{Alpha: sched.DefaultAlpha}, sched.Speculate{R: 2}}
	for _, prof := range skews {
		var row capRow
		var thrStats mpc.Stats
		for _, pol := range policies {
			cfg := profiled(g, seed, prof, true)
			cfg.Placement, cfg.Trace = pol, trace.New()
			c, sorted, err := cell(rn, cfg, placeSort(g))
			if err == nil {
				err = row.check(pol, prims.Flatten(sorted), c.Stats())
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof, pol.Name(), err)
			}
			st := c.Stats()
			estRounds := 0
			if est := c.PlacementEstimator(); est != nil {
				estRounds = est.Rounds()
				// Truthful profile: measured cost == declared cost exactly,
				// so the adaptive run must be bit-identical to throughput.
				if st.Makespan != thrStats.Makespan || st.TotalWords != thrStats.TotalWords {
					return nil, fmt.Errorf("%s: adaptive (makespan %v, words %d) diverged from static throughput (%v, %d) under a truthful profile",
						prof, st.Makespan, st.TotalWords, thrStats.Makespan, thrStats.TotalWords)
				}
			}
			if pol.Name() == "throughput" {
				thrStats = st
			}
			t.AddRow(prof, pol.Name(), st.Rounds, estRounds, st.Makespan,
				st.Makespan/row.stats.Makespan, c.BusyImbalance())
		}
	}
	t.Notes = append(t.Notes,
		"truthful declared profiles: the estimator measures back exactly what was declared, so every adaptive cell is bit-identical to static throughput (asserted)",
		"est rounds counts the exchange rounds the EWMA actually observed; every cell is traced and re-proves conservation under the round-barrier share refresh",
	)
	return t, nil
}

// e30MisreportedProfile is the scenario adaptive placement exists for: the
// declared profile says the cluster is uniform, but two of the eight
// machines actually run 2–10× slower for the whole run (a whole-run
// fault.Slowdown window — invisible to any static policy, whose shares are
// fixed at New, but visible to the adaptive estimator through the measured
// per-word costs). K is pinned to 8 so the route rounds dominate and the
// placement split is what the makespan measures. Static cap and throughput
// both believe the declaration and split evenly, so every round waits for
// the slow pair; the adaptive estimator measures the real per-word costs off
// the first rounds and shifts the split, recovering most of the loss. The
// acceptance gate: at 4× (and above) misreporting, adaptive's makespan is
// at most 0.8× every static policy's.
func (rn *run) e30MisreportedProfile(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	const k, wholeRun = 8, 1 << 20
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
		var row capRow
		var thrStats mpc.Stats
		for _, pol := range policies {
			cfg := mpc.Config{N: n, M: m, K: k, Seed: seed, Placement: pol, Trace: trace.New()}
			cfg.Profile = beefyCoordinator(mpc.UniformProfile(k))
			cfg.Faults = &fault.Plan{Slowdowns: []fault.Slowdown{
				{Machine: k - 2, From: 1, To: wholeRun, Factor: factor},
				{Machine: k - 1, From: 1, To: wholeRun, Factor: factor},
			}}
			c, sorted, err := cell(rn, cfg, placeSort(g))
			if err == nil {
				err = row.check(pol, prims.Flatten(sorted), c.Stats())
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", label, pol.Name(), err)
			}
			st := c.Stats()
			if pol.Name() == "throughput" {
				thrStats = st
			}
			// The acceptance gate: adaptive must recover at least 20% of
			// makespan against every static split once the declaration is 4×
			// wrong. (cap and throughput coincide here — both trust the
			// uniform declaration.)
			if c.PlacementEstimator() != nil && factor >= 4 &&
				(st.Makespan > 0.8*row.stats.Makespan || st.Makespan > 0.8*thrStats.Makespan) {
				return nil, fmt.Errorf("%s: adaptive makespan %g is not <= 0.8× static cap %g and throughput %g",
					label, st.Makespan, row.stats.Makespan, thrStats.Makespan)
			}
			t.AddRow(label, pol.Name(), st.Rounds, st.Makespan,
				st.Makespan/row.stats.Makespan, st.SpeculationWords)
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
	window := []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"slow:0:5:40:16", &fault.Plan{Slowdowns: window}},
		{"ckpt:8+slow:0:5:40:16", &fault.Plan{Interval: 8, Slowdowns: window}},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Speculate{R: 2}, sched.Adaptive{Alpha: sched.DefaultAlpha}}
	for _, pl := range plans {
		capMakespan, thrMakespan := 0.0, 0.0
		for _, pol := range policies {
			cfg := profiled(g, seed, "straggler:2:8", true)
			cfg.Placement, cfg.Faults, cfg.Trace = pol, pl.plan, trace.New()
			c, _, err := cell(rn, cfg, mst(g, exact))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pl.name, pol.Name(), err)
			}
			st := c.Stats()
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
					return nil, fmt.Errorf("%s: adaptive makespan %g did not beat static throughput %g",
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
