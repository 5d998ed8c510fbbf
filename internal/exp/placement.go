package exp

import (
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The placement sweeps exercise the placement-policy subsystem (DESIGN.md
// §8): pluggable work placement across heterogeneous machines — the
// capacity-proportional cap default, the min-makespan throughput split, and
// speculate:R's first-copy-wins redundant execution — and adaptive placement
// (DESIGN.md §10): the sched.Adaptive policy re-estimates every machine's
// effective per-word cost online (an EWMA over the rounds the run actually
// executes) and recomputes the throughput-style split at each round
// barrier. The invariant every row re-asserts: placement moves data, never
// correctness — outputs are validated against the exact references under
// every policy, and the speculative copies are charged honestly
// (speculation words, partner busy time) rather than conjured for free.
//
// E24 turns speculation's redundancy dial. E29–E31 pin adaptive placement
// from three sides: with a truthful profile it degenerates to static
// throughput bit-identically (E29, which also holds the static policies'
// grid), with a misreported profile it is the only policy that recovers
// the makespan the static splits leave on the table (E30), and under
// transient slowdown windows it tracks the effective costs through the
// window and back out (E31, which also holds speculation under crashes and
// windows). The traced cells re-prove the conservation contract under
// mid-run share switches.
//
// MST is where speculation still has something to rescue (E24, E31): a
// plain sample sort's traffic, its replies included, follows the items a
// machine holds, which static throughput shares already balance (E29),
// while MST's aggregations and disseminations route by key — a key's
// partials and requests meet on one machine wherever the shares put it.

// e24SpeculationDial sweeps the redundancy dial R = 0..4 under straggler
// profiles: R = 0 is pure throughput placement (the rounds whose traffic
// follows the placed edges balance, the rounds routed by key still wait for
// the stragglers), and each additional speculated shard shaves those until
// every straggler is covered — at an honestly charged word cost. Every
// speculate row must reproduce the cap row's tree edge for edge and its round
// count, move exactly R = 0's algorithm words, and beat cap's makespan; the
// makespan must not rise with R, and R = 4 must beat R = 0. Every cell is
// traced, and each speculate row names the phase that won most over cap;
// the phase wins must sum to the total win.
func (rn *run) e24SpeculationDial(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E24 — speculation dial R=0..4 under straggler profiles (MST), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "makespan", "vs cap",
			"spec words", "words", "top win phase", "win share"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	policies := []sched.Policy{sched.Cap{}, sched.Speculate{R: 0}, sched.Speculate{R: 1},
		sched.Speculate{R: 2}, sched.Speculate{R: 3}, sched.Speculate{R: 4}}
	for _, prof := range []string{"straggler:2:8", "straggler:4:16"} {
		var row capRow
		var thrWords int64
		capPhase := map[string]float64{}
		var dial []float64 // makespan by R
		for _, pol := range policies {
			cfg := profiled(g, seed, prof, true)
			cfg.Placement, cfg.Trace = pol, trace.New()
			c, r, err := cell(rn, cfg, mst(g))
			if err == nil {
				prims.SortLocal(r.Edges, edgeKey)
				err = row.check(pol, r.Edges, c.Stats())
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof, pol.Name(), err)
			}
			st := c.Stats()
			phases := trace.Summarize(c.Trace().Rounds()).Phases
			var top, share any = "-", "-"
			s, ok := pol.(sched.Speculate)
			if !ok {
				for _, p := range phases {
					capPhase[p.Phase] = p.Makespan
				}
			} else {
				// Algorithm words are no longer placement-independent (DESIGN.md
				// §8): Sort's reply is a machine's own cuts, and the cuts follow
				// the splitters, which follow the shares. Every speculate row has
				// R = 0's shares, so R = 0's words are the reference; cap's differ.
				if s.R == 0 {
					thrWords = st.TotalWords
				}
				if st.TotalWords != thrWords {
					return nil, fmt.Errorf("%s/%s: words %d vs R=0 %d", prof, pol.Name(), st.TotalWords, thrWords)
				}
				if st.Makespan >= row.stats.Makespan {
					return nil, fmt.Errorf("%s/%s: makespan %g did not beat cap %g", prof, pol.Name(), st.Makespan, row.stats.Makespan)
				}
				if s.R > 0 && st.Makespan > dial[s.R-1] {
					return nil, fmt.Errorf("%s/%s: makespan %g rose from R=%d's %g", prof, pol.Name(), st.Makespan, s.R-1, dial[s.R-1])
				}
				dial = append(dial, st.Makespan)
				// Placement moves data, never the round structure, so the
				// phase sets match cap's and the phase wins sum to the total.
				win, sum, best := row.stats.Makespan-st.Makespan, 0.0, 0.0
				for _, p := range phases {
					gap := capPhase[p.Phase] - p.Makespan
					sum += gap
					if gap > best {
						top, best = p.Phase, gap
					}
				}
				if math.Abs(sum-win) > 1e-6 {
					return nil, fmt.Errorf("%s/%s: phase wins sum to %g, total win is %g", prof, pol.Name(), sum, win)
				}
				share = best / win
			}
			t.AddRow(prof, pol.Name(), st.Makespan, st.Makespan/row.stats.Makespan,
				st.SpeculationWords, st.TotalWords, top, share)
		}
		if dial[4] >= dial[0] {
			return nil, fmt.Errorf("%s: speculate:4 makespan %g did not beat speculate:0 %g", prof, dial[4], dial[0])
		}
	}
	t.Notes = append(t.Notes,
		"R=0 is pure throughput placement; R>=1 additionally mirrors the slowest per-round shards, first-copy-wins",
		"spec words are the honestly charged redundant traffic; algorithm words (the words column) are identical in every speculate row",
		"the cap row's words differ: the splitters follow the placement shares, and Sort's reply to a machine is the cuts of its own run",
		"every speculate row reproduces the cap row's tree edge for edge; its weight is validated exact in every row",
		"makespan never rises with R, and R=4 beats R=0 (asserted); top win phase: the phase whose makespan fell most from cap's, win share: its part of the total win (the phase wins sum to it, asserted)",
	)
	return t, nil
}

// e29AdaptivePolicyGrid crosses cap, throughput, adaptive and speculate:2
// with the canonical capacity, cohort and straggler skews under the place +
// sample-sort workload. Every row must reproduce the cap row's sorted output
// and round count exactly, and each policy's claim is checked cell by cell.
// Throughput must beat cap where the profile skews speed and equal it under
// zipf, which skews capacity only, so throughput's split clips to cap's.
// Speculate:2 must charge no speculation word: a sample, the reply to it and
// the route all follow the items a machine holds, so throughput leaves no
// slow shard a fast machine could beat (E24 turns the dial on MST, where
// rounds routed by key remain). The declared profiles are truthful, so the
// measured per-word costs reproduce the declared ones exactly and adaptive
// must land bit-identically on static throughput. Every cell runs traced
// and re-proves trace conservation under the (no-op) round-barrier share
// refresh.
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
	for _, prof := range []string{"zipf:0.8", "bimodal:0.25:4", "straggler:2:8"} {
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
			switch pol.(type) {
			case sched.Throughput:
				thrStats = st
				costs := make([]float64, c.K())
				for i := range costs {
					costs[i] = c.WordCost(i)
				}
				evenCost := slices.Min(costs) == slices.Max(costs)
				if evenCost && st.Makespan != row.stats.Makespan {
					return nil, fmt.Errorf("%s: throughput makespan %v differs from cap %v at even costs", prof, st.Makespan, row.stats.Makespan)
				}
				if !evenCost && st.Makespan >= row.stats.Makespan {
					return nil, fmt.Errorf("%s: throughput makespan %v did not beat cap %v under cost skew", prof, st.Makespan, row.stats.Makespan)
				}
			case sched.Adaptive:
				estRounds = c.PlacementEstimator().Rounds()
				// Truthful profile: measured cost == declared cost exactly,
				// so the adaptive run must be bit-identical to throughput.
				if st.Makespan != thrStats.Makespan || st.TotalWords != thrStats.TotalWords {
					return nil, fmt.Errorf("%s: adaptive (makespan %v, words %d) diverged from static throughput (%v, %d) under a truthful profile",
						prof, st.Makespan, st.TotalWords, thrStats.Makespan, thrStats.TotalWords)
				}
			case sched.Speculate:
				if st.SpeculationWords != 0 {
					return nil, fmt.Errorf("%s: speculate:2 charged %d speculation words on a sample sort", prof, st.SpeculationWords)
				}
			}
			t.AddRow(prof, pol.Name(), st.Rounds, estRounds, st.Makespan,
				st.Makespan/row.stats.Makespan, c.BusyImbalance())
		}
	}
	t.Notes = append(t.Notes,
		"every policy reproduces the cap row's sorted output and round count exactly; only placement and the clock move",
		"zipf skews capacity only, so throughput clips to cap and the ratio stays 1; speed skew is where placement pays (asserted both ways)",
		"speculate:2 launches no copy: every round of a sample sort follows the placed items, so throughput leaves it no slow shard a fast machine could beat (asserted)",
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

// e31AdaptiveTransientSlowdown crosses the placement policies with three
// fault plans under MST on a truthful straggler cluster: E21's shared
// crash plan (checkpoints + seed-derived crashes), and a transient 16×
// slowdown window on the fastest machine mid-run (rounds 5–40), alone and
// with the checkpoint cadence. Static shares are fixed before the run, so static
// throughput keeps feeding the window's machine a full share. Speculation
// reads the effective per-round costs and must beat static throughput under
// every plan. The adaptive estimator tracks the effective cost up as the
// window opens and back down after it closes, and must beat static
// throughput under both slowdown plans; under the crash plan no window
// opens, and it must equal static throughput exactly (E29's degeneration).
// The MST weight is validated exact in every cell.
func (rn *run) e31AdaptiveTransientSlowdown(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E31 — adaptive placement under transient slowdown windows (MST), n=%d m=%d (straggler:2:8 cluster)", n, m),
		Header: []string{"fault plan", "policy", "rounds", "crashes", "recovery rounds",
			"est rounds", "spec words", "makespan", "vs cap"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	window := []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"slow:0:5:40:16", &fault.Plan{Slowdowns: window}},
		{"ckpt:8+slow:0:5:40:16", &fault.Plan{Interval: 8, Slowdowns: window}},
		{"ckpt:8+rate:0.002", &fault.Plan{Interval: 8, CrashRate: 0.002}},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Speculate{R: 2}, sched.Adaptive{Alpha: sched.DefaultAlpha}}
	for _, pl := range plans {
		var capMakespan float64
		var thrStats mpc.Stats
		for _, pol := range policies {
			cfg := profiled(g, seed, "straggler:2:8", true)
			cfg.Placement, cfg.Faults, cfg.Trace = pol, pl.plan, trace.New()
			c, _, err := cell(rn, cfg, mst(g))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pl.name, pol.Name(), err)
			}
			st := c.Stats()
			estRounds := 0
			switch pol.(type) {
			case sched.Cap:
				capMakespan = st.Makespan
			case sched.Throughput:
				thrStats = st
			case sched.Speculate:
				if st.Makespan >= thrStats.Makespan {
					return nil, fmt.Errorf("%s: speculation makespan %g did not beat static throughput %g",
						pl.name, st.Makespan, thrStats.Makespan)
				}
			case sched.Adaptive:
				estRounds = c.PlacementEstimator().Rounds()
				windowed := len(pl.plan.Slowdowns) > 0
				if windowed && st.Makespan >= thrStats.Makespan {
					return nil, fmt.Errorf("%s: adaptive makespan %g did not beat static throughput %g",
						pl.name, st.Makespan, thrStats.Makespan)
				}
				if !windowed && (st.Makespan != thrStats.Makespan || st.TotalWords != thrStats.TotalWords) {
					return nil, fmt.Errorf("%s: adaptive (makespan %v, words %d) diverged from static throughput (%v, %d) with no window open",
						pl.name, st.Makespan, st.TotalWords, thrStats.Makespan, thrStats.TotalWords)
				}
			}
			t.AddRow(pl.name, pol.Name(), st.Rounds, st.Crashes, st.RecoveryRounds, estRounds,
				st.SpeculationWords, st.Makespan, st.Makespan/capMakespan)
		}
	}
	t.Notes = append(t.Notes,
		"the MST weight is validated exact in every cell: neither re-splitting, speculation nor crash recovery may change the output",
		"static shares are fixed before the window opens; speculation reads per-round effective costs and adapts (asserted: speculate:2 beats static throughput under every plan)",
		"the estimator tracks the effective per-word cost up into the window and back out after it closes (asserted: adaptive beats static throughput under both slowdown plans)",
		"the crash plan opens no window, so adaptive's truthful estimates land bit-identically on static throughput, crashes and recovery included (asserted)",
	)
	return t, nil
}
