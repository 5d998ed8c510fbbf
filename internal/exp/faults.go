package exp

import (
	"fmt"
	"math"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// The E21–E22 sweeps exercise the fault-injection and recovery subsystem
// (DESIGN.md §7): deterministic crash/slowdown schedules, round-level
// checkpoint replication to capacity-aware buddies, and replicated-state
// recovery. The invariant every row re-asserts: faults never change the
// algorithm's round structure or output — recovery is lossless — they only
// add measured cost (crashes, recovery rounds, replication words, and a
// recovery-inflated makespan).

// e21CrashGrid runs two slices of the crash-rate × checkpoint-interval grid
// under MST, crossing at one shared cell (rate 0.002, interval 8). Along the
// rate slice the rate-0 row prices pure checkpointing and each rate step
// adds recovery rounds and restore traffic; along the interval slice the
// crash schedule stays put while frequent checkpoints pay replication words
// every barrier and rare ones pay long replays on every crash. It returns an
// error unless the rate-0 cell crashes nothing, every cell charges the
// fault-free cell's rounds, crashes, recovery rounds, replication words and
// makespan rise strictly with the rate, crashes are equal across intervals,
// and replication words fall and recovery rounds rise with the interval.
func (rn *run) e21CrashGrid(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	const rate, interval = 0.002, 8 // the shared cell
	t := &Table{
		Title: fmt.Sprintf("E21 — crash rate × checkpoint interval under MST, n=%d m=%d (rates at interval %d, intervals at rate %g)", n, m, interval, rate),
		Header: []string{"crash rate", "interval", "checkpoints", "crashes", "recovery rounds",
			"repl. words", "rounds", "makespan", "vs fault-free"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	type point struct {
		rate     float64
		interval int
	}
	rates := []float64{0, 0.0005, rate, 0.008}
	intervals := []int{2, 4, interval, 16, 32, 64}
	var grid []point
	for _, r := range rates {
		grid = append(grid, point{r, interval})
	}
	for _, iv := range intervals {
		if iv != interval {
			grid = append(grid, point{rate, iv})
		}
	}
	stats := map[point]mpc.Stats{}
	for _, p := range grid {
		cfg := het(n, m, 0, seed)
		cfg.Faults = &fault.Plan{Interval: p.interval, CrashRate: p.rate}
		c, _, err := cell(rn, cfg, mst(g))
		if err != nil {
			return nil, fmt.Errorf("rate=%g interval=%d: %w (recovery lost state?)", p.rate, p.interval, err)
		}
		st := c.Stats()
		stats[p] = st
		base := stats[grid[0]] // the fault-free cell, run first
		if st.Rounds != base.Rounds {
			return nil, fmt.Errorf("rate=%g interval=%d changed the round count: %d vs %d", p.rate, p.interval, st.Rounds, base.Rounds)
		}
		t.AddRow(p.rate, p.interval, st.Checkpoints, st.Crashes, st.RecoveryRounds,
			st.ReplicationWords, st.Rounds, st.Makespan, st.Makespan/base.Makespan)
	}
	if st := stats[grid[0]]; st.Crashes != 0 {
		return nil, fmt.Errorf("rate=0 crashed %d times", st.Crashes)
	}
	for i := 1; i < len(rates); i++ {
		a, b := stats[point{rates[i-1], interval}], stats[point{rates[i], interval}]
		if b.Crashes <= a.Crashes || b.RecoveryRounds <= a.RecoveryRounds ||
			b.ReplicationWords <= a.ReplicationWords || b.Makespan <= a.Makespan {
			return nil, fmt.Errorf("rate %g → %g: crashes %d → %d, recovery rounds %d → %d, replication words %d → %d, makespan %g → %g do not all rise",
				rates[i-1], rates[i], a.Crashes, b.Crashes, a.RecoveryRounds, b.RecoveryRounds,
				a.ReplicationWords, b.ReplicationWords, a.Makespan, b.Makespan)
		}
	}
	for i := 1; i < len(intervals); i++ {
		a, b := stats[point{rate, intervals[i-1]}], stats[point{rate, intervals[i]}]
		if b.Crashes != a.Crashes {
			return nil, fmt.Errorf("interval %d → %d moved the crash schedule: %d → %d crashes", intervals[i-1], intervals[i], a.Crashes, b.Crashes)
		}
		if b.ReplicationWords >= a.ReplicationWords || b.RecoveryRounds <= a.RecoveryRounds {
			return nil, fmt.Errorf("interval %d → %d: replication words %d → %d do not fall or recovery rounds %d → %d do not rise",
				intervals[i-1], intervals[i], a.ReplicationWords, b.ReplicationWords, a.RecoveryRounds, b.RecoveryRounds)
		}
	}
	t.Notes = append(t.Notes,
		"rounds and the MST weight are bit-identical across rows: recovery restores exactly the pre-crash state",
		"the rate-0 row prices pure checkpoint replication; each crash adds detect+restore+replay rounds, so every cost rises with the rate",
		"the victims of one barrier recover concurrently: a barrier charges the makespan of its slowest victim, recovery rounds count every victim's",
		"the crash schedule is identical along the interval slice (same seed, same rounds); short intervals: replication words dominate; long intervals: replay rounds dominate",
	)
	return t, nil
}

// e22StragglerCrash crosses a straggler speed profile with an explicit
// crash schedule under sketch connectivity: the same crash is injected
// once into a fast machine and once into the straggler tail. Recovering a
// victim pays its own replay and restore words, each at 1/speed +
// 1/bandwidth: 2 on a fast machine, s + 1 on a straggler of slowdown s. It
// returns an error unless the fast victim's recovery cost is the same at
// every slowdown and the straggler's is within 5% of its slowdown-1 cost
// times (s + 1) / 2.
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
	k := het(n, m, 0, seed).DeriveK()
	ref := map[int]float64{} // each victim's recovery cost at slowdown 1, which runs first
	for _, slowdown := range []float64{1, 16, 64} {
		var base mpc.Stats
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
			c, _, err := cell(rn, cfg, cc(g))
			if err != nil {
				return nil, fmt.Errorf("slowdown=%g victim=%d: %w", slowdown, victim, err)
			}
			st := c.Stats()
			if victim < 0 {
				base = st
				continue
			}
			cost := st.Makespan - base.Makespan
			if slowdown == 1 {
				ref[victim] = cost
			}
			name, want, tol := "fast (machine 0)", ref[0], 0.0
			if victim != 0 {
				name, want, tol = fmt.Sprintf("straggler (machine %d)", victim), ref[victim]*(slowdown+1)/2, 0.05
			}
			if math.Abs(cost-want) > tol*want {
				return nil, fmt.Errorf("slowdown=%g, %s: recovery cost %g, want %g within %g%%", slowdown, name, cost, want, 100*tol)
			}
			t.AddRow(slowdown, name, st.Crashes, st.RecoveryRounds,
				st.Makespan, cost, cost/ref[0])
		}
	}
	t.Notes = append(t.Notes,
		"recovery cost = makespan minus the same profile's crash-free makespan (checkpointing included in both)",
		"a recovered word costs 1/speed + 1/bandwidth: 2 on a fast victim, s+1 on a straggler, so the straggler's cost tracks (s+1)/2 × its slowdown-1 cost and the fast victim's stays put (asserted: the fast cost exactly, the straggler's within 5%)",
	)
	return t, nil
}
