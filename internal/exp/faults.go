package exp

import (
	"fmt"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// The E20–E22 sweeps exercise the fault-injection and recovery subsystem
// (DESIGN.md §7): deterministic crash/slowdown schedules, round-level
// checkpoint replication to capacity-aware buddies, and replicated-state
// recovery. The invariant every row re-asserts: faults never change the
// algorithm's round structure or output — recovery is lossless — they only
// add measured cost (crashes, recovery rounds, replication words, and a
// recovery-inflated makespan).

// e20CrashRate sweeps the seed-derived crash rate under MST at a fixed
// checkpoint cadence: the rate-0 row prices pure checkpointing, and each
// rate step adds recovery rounds and restore traffic while rounds and the
// MST weight stay bit-identical.
func (rn *run) e20CrashRate(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	const interval = 8
	t := &Table{
		Title: fmt.Sprintf("E20 — crash rate vs recovery overhead under MST, n=%d m=%d (ckpt every %d rounds)", n, m, interval),
		Header: []string{"crash rate", "crashes", "recovery rounds", "repl. words",
			"rounds", "makespan", "vs fault-free"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	baseRounds, baseMakespan := 0, 0.0
	for _, rate := range []float64{0, 0.0005, 0.002, 0.008} {
		cfg := het(n, m, 0, seed)
		cfg.Faults = &fault.Plan{Interval: interval, CrashRate: rate}
		c, _, err := cell(rn, cfg, mst(g, exact))
		if err != nil {
			return nil, fmt.Errorf("rate=%g: %w (recovery lost state?)", rate, err)
		}
		st := c.Stats()
		if rate == 0 {
			baseRounds, baseMakespan = st.Rounds, st.Makespan
			if st.Crashes != 0 {
				return nil, fmt.Errorf("rate=0 crashed %d times", st.Crashes)
			}
		} else if st.Rounds != baseRounds {
			return nil, fmt.Errorf("rate=%g changed the round count: %d vs %d", rate, st.Rounds, baseRounds)
		}
		t.AddRow(rate, st.Crashes, st.RecoveryRounds, st.ReplicationWords,
			st.Rounds, st.Makespan, st.Makespan/baseMakespan)
	}
	t.Notes = append(t.Notes,
		"rounds and the MST weight are bit-identical across rows: recovery restores exactly the pre-crash state",
		"the rate-0 row prices pure checkpoint replication; each crash adds detect+restore+replay rounds",
	)
	return t, nil
}

// e21CheckpointInterval sweeps the checkpoint cadence at a fixed crash
// rate: frequent checkpoints pay replication words every barrier, rare
// checkpoints pay long replays on every crash — the classic trade-off
// curve, with the makespan showing the sweet spot.
func (rn *run) e21CheckpointInterval(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	const rate = 0.002
	t := &Table{
		Title: fmt.Sprintf("E21 — checkpoint interval trade-off under MST, n=%d m=%d (crash rate %g)", n, m, rate),
		Header: []string{"interval", "checkpoints", "repl. words", "crashes",
			"recovery rounds", "makespan"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	for _, interval := range []int{2, 4, 8, 16, 32, 64} {
		cfg := het(n, m, 0, seed)
		cfg.Faults = &fault.Plan{Interval: interval, CrashRate: rate}
		c, _, err := cell(rn, cfg, mst(g, exact))
		if err != nil {
			return nil, fmt.Errorf("interval=%d: %w", interval, err)
		}
		st := c.Stats()
		t.AddRow(interval, st.Checkpoints, st.ReplicationWords, st.Crashes,
			st.RecoveryRounds, st.Makespan)
	}
	t.Notes = append(t.Notes,
		"the crash schedule is identical in every row (same seed, same rounds); only the recovery cost moves",
		"short intervals: replication words dominate; long intervals: replay rounds dominate",
	)
	return t, nil
}

// e22StragglerCrash crosses a straggler speed profile with an explicit
// crash schedule under sketch connectivity: the same crash is injected
// once into a fast machine and once into the straggler tail. Recovering a
// straggler pays the slow machine's replay and restore costs, so the
// absolute recovery cost compounds with the slowdown instead of adding a
// constant to it.
func (rn *run) e22StragglerCrash(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	const interval = 2
	const crashRound = 4
	t := &Table{
		Title: fmt.Sprintf("E22 — straggler profile × crash interaction under connectivity, n=%d m=%d (one crash at round %d)", n, m, crashRound),
		Header: []string{"slowdown", "victim", "crashes", "recovery rounds",
			"makespan", "recovery cost", "vs fast victim"},
	}
	g := graph.GNM(n, m, seed)
	_, wantComps := graph.Components(g)
	k := het(n, m, 0, seed).DeriveK()
	for _, slowdown := range []float64{1, 16, 64} {
		var base mpc.Stats
		fastCost := 0.0
		// Victim -1 is the same profile's crash-free run: checkpointing only.
		for _, victim := range []int{-1, 0, k - 1} {
			cfg := het(n, m, 0, seed)
			// At slowdown 1 this is the explicit uniform profile, bit-identical
			// to nil: the axis the sweep crosses is pinned on every cell.
			cfg.Profile = mpc.StragglerProfile(k, max(k/8, 1), slowdown)
			cfg.Faults = &fault.Plan{Interval: interval}
			if victim >= 0 {
				cfg.Faults.Crashes = []fault.Crash{{Round: crashRound, Machine: victim}}
			}
			c, _, err := cell(rn, cfg, cc(g, wantComps))
			if err != nil {
				return nil, fmt.Errorf("slowdown=%g victim=%d: %w", slowdown, victim, err)
			}
			st := c.Stats()
			if victim < 0 {
				base = st
				continue
			}
			cost := st.Makespan - base.Makespan
			name := fmt.Sprintf("straggler (machine %d)", victim)
			if victim == 0 {
				name, fastCost = "fast (machine 0)", cost
			}
			t.AddRow(slowdown, name, st.Crashes, st.RecoveryRounds,
				st.Makespan, cost, cost/fastCost)
		}
	}
	t.Notes = append(t.Notes,
		"recovery cost = makespan minus the same profile's crash-free makespan (checkpointing included in both)",
		"replaying and restoring a straggler victim pays its slow compute/link, so its recovery cost scales with the slowdown",
	)
	return t, nil
}
