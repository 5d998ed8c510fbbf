// Package fault describes deterministic fault-injection schedules for the
// heterogeneous-MPC simulator: machine crashes (with optional
// restart-after-k-rounds downtime), transient slowdown windows, and the
// round-level checkpoint cadence the recovery protocol replicates state at.
//
// A Plan is pure data — it never mutates during a run — and every schedule
// it can express is a deterministic function of the plan and the master
// seed: the rate-derived crash schedule hashes (seed, round, machine), so
// two runs of the same plan see byte-identical fault sequences under any
// GOMAXPROCS. The engine that consumes a Plan (the Exchange hooks in
// internal/mpc) charges every recovery action in the same currencies as
// ordinary traffic — words, rounds, makespan — so fault tolerance is never
// free. See DESIGN.md §7.
//
// The zero Plan injects nothing and checkpoints never; a cluster built with
// &Plan{} is bit-identical to one built with a nil plan (tested).
package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"hetmpc/internal/xrand"
)

// Crash schedules one machine failure: small machine Machine fails at the
// barrier ending round Round and stays down for RestartAfter extra rounds
// before recovery completes (0 = restore immediately).
type Crash struct {
	Round        int
	Machine      int
	RestartAfter int
}

// sameEvent reports whether two crashes fail the same machine at the same
// round: CrashAt would see only the first, so a plan may hold one.
func (cr Crash) sameEvent(o Crash) bool { return cr.Round == o.Round && cr.Machine == o.Machine }

// Slowdown is a transient straggler window: small machine Machine runs
// Factor× slower (per word it moves) during rounds From..To inclusive.
// Unlike a Profile speed, the window is temporary and round-addressed; like
// a Profile speed it changes only the simulated clock, never the round
// structure.
type Slowdown struct {
	Machine  int
	From, To int
	Factor   float64
}

// Plan is a deterministic fault schedule plus the checkpoint cadence. The
// zero value injects nothing.
type Plan struct {
	Name string // for table/artifact labels; ParsePlan fills it in

	// Interval is the checkpoint cadence: every Interval completed rounds
	// the engine replicates each registered machine's state to its buddy
	// (charging the replication words and makespan). 0 disables
	// checkpointing; crashes then replay from round 0.
	Interval int

	// Crashes is the explicit schedule. Entries are processed in (Round,
	// Machine) order regardless of slice order.
	Crashes []Crash

	// CrashRate adds a seed-derived schedule on top of Crashes: each
	// (machine, round) pair fails independently with this probability,
	// decided by hashing (Seed, round, machine). 0 disables it.
	CrashRate float64

	// RestartAfter is the downtime applied to rate-derived crashes (and a
	// floor is never applied to explicit Crash entries, which carry their
	// own).
	RestartAfter int

	// Slowdowns are transient straggler windows.
	Slowdowns []Slowdown

	// Seed derives the CrashRate schedule. 0 means the engine substitutes
	// the cluster's master seed, so reseeding the run reseeds the faults.
	Seed uint64
}

// Active reports whether the plan can have any effect on a run. Inactive
// plans (including the zero Plan and nil) leave Stats bit-identical to a
// fault-free run.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Interval > 0 || len(p.Crashes) > 0 || p.CrashRate > 0 || len(p.Slowdowns) > 0
}

// Validate checks the plan against a k-machine cluster. Only small machines
// (0..k-1) can crash or slow down: the large machine is the paper's
// coordinator and its loss is out of scope (DESIGN.md §7).
func (p *Plan) Validate(k int) error {
	if p == nil {
		return nil
	}
	if p.Interval < 0 {
		return fmt.Errorf("fault: negative checkpoint interval %d", p.Interval)
	}
	if p.CrashRate < 0 || p.CrashRate >= 1 || math.IsNaN(p.CrashRate) {
		return fmt.Errorf("fault: crash rate %v outside [0,1)", p.CrashRate)
	}
	if p.RestartAfter < 0 {
		return fmt.Errorf("fault: negative restart-after %d", p.RestartAfter)
	}
	for i, cr := range p.Crashes {
		if slices.ContainsFunc(p.Crashes[:i], cr.sameEvent) {
			return fmt.Errorf("fault: machine %d crashes twice at round %d", cr.Machine, cr.Round)
		}
		if cr.Machine < 0 || cr.Machine >= k {
			return fmt.Errorf("fault: crash machine %d outside cluster of K=%d", cr.Machine, k)
		}
		if cr.Round < 1 {
			return fmt.Errorf("fault: crash round %d, rounds are numbered from 1", cr.Round)
		}
		if cr.RestartAfter < 0 {
			return fmt.Errorf("fault: crash at round %d: negative restart-after %d", cr.Round, cr.RestartAfter)
		}
	}
	for _, s := range p.Slowdowns {
		if s.Machine < 0 || s.Machine >= k {
			return fmt.Errorf("fault: slowdown machine %d outside cluster of K=%d", s.Machine, k)
		}
		if s.From < 1 || s.To < s.From {
			return fmt.Errorf("fault: slowdown window [%d,%d] invalid, need 1 <= from <= to", s.From, s.To)
		}
		if s.Factor < 1 || math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("fault: slowdown factor %v, want a finite factor >= 1", s.Factor)
		}
	}
	return nil
}

// CrashAt reports whether machine crashes at the barrier ending round, and
// the downtime before its recovery completes. seed is the cluster's master
// seed, used when the plan's own Seed is 0. Explicit Crash entries take
// precedence over the rate schedule.
func (p *Plan) CrashAt(round, machine int, seed uint64) (restartAfter int, crashed bool) {
	if p == nil {
		return 0, false
	}
	for _, cr := range p.Crashes {
		if cr.Round == round && cr.Machine == machine {
			return cr.RestartAfter, true
		}
	}
	if p.CrashRate > 0 {
		s := p.Seed
		if s == 0 {
			s = seed
		}
		h := xrand.Split(xrand.Split(s^0xfa017_c4a5, uint64(round)), uint64(machine))
		if float64(h>>11)/(1<<53) < p.CrashRate {
			return p.RestartAfter, true
		}
	}
	return 0, false
}

// SlowFactor returns the combined transient slowdown of machine in round
// (overlapping windows multiply); 1 when no window is active.
func (p *Plan) SlowFactor(round, machine int) float64 {
	if p == nil || len(p.Slowdowns) == 0 {
		return 1
	}
	f := 1.0
	for _, s := range p.Slowdowns {
		if s.Machine == machine && round >= s.From && round <= s.To {
			f *= s.Factor
		}
	}
	return f
}

// HasSlowdowns reports whether any slowdown window exists (a fast-path
// guard for the per-round pricing).
func (p *Plan) HasSlowdowns() bool { return p != nil && len(p.Slowdowns) > 0 }

// ParsePlan builds a fault plan for a k-machine cluster from a CLI spec of
// `+`-joined clauses, mirroring mpc.ParseProfile:
//
//	none                      no faults (returns nil, as does the empty spec)
//	ckpt:I                    checkpoint every I rounds
//	crash:R:M[:K]             machine M crashes at round R, down K rounds
//	rate:P[:SEED]             each (machine, round) crashes with prob. P
//	slow:M:FROM:TO:FACTOR     machine M runs FACTOR× slower in rounds FROM..TO
//	restart:K                 downtime applied to rate-derived crashes
//
// e.g. "ckpt:8+crash:12:3" or "ckpt:16+rate:0.002+restart:2". A repeated
// ckpt, rate or restart clause, or crash of one machine at one round, is
// refused by name; slow windows may repeat (overlapping windows multiply).
func ParsePlan(spec string, k int) (*Plan, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{Name: spec}
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, "+") {
		parts := strings.Split(clause, ":")
		if once := parts[0] == "ckpt" || parts[0] == "rate" || parts[0] == "restart"; once && seen[parts[0]] {
			return nil, fmt.Errorf("fault: plan %q: clause %q repeats %s", spec, clause, parts[0])
		}
		seen[parts[0]] = true
		args := make([]float64, 0, len(parts)-1)
		for _, a := range parts[1:] {
			v, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: plan %q: bad number %q", spec, a)
			}
			args = append(args, v)
		}
		integral := func(i int) (int, error) {
			if args[i] != math.Trunc(args[i]) {
				return 0, fmt.Errorf("fault: plan %q: %q must be an integer", spec, parts[1+i])
			}
			return int(args[i]), nil
		}
		switch parts[0] {
		case "ckpt":
			if len(args) != 1 {
				return nil, fmt.Errorf("fault: plan %q: want ckpt:INTERVAL", spec)
			}
			v, err := integral(0)
			if err != nil {
				return nil, err
			}
			p.Interval = v
		case "crash":
			if len(args) != 2 && len(args) != 3 {
				return nil, fmt.Errorf("fault: plan %q: want crash:ROUND:MACHINE[:RESTART]", spec)
			}
			var cr Crash
			var err error
			if cr.Round, err = integral(0); err != nil {
				return nil, err
			}
			if cr.Machine, err = integral(1); err != nil {
				return nil, err
			}
			if len(args) == 3 {
				if cr.RestartAfter, err = integral(2); err != nil {
					return nil, err
				}
			}
			if slices.ContainsFunc(p.Crashes, cr.sameEvent) {
				return nil, fmt.Errorf("fault: plan %q: clause %q repeats the crash of machine %d at round %d", spec, clause, cr.Machine, cr.Round)
			}
			p.Crashes = append(p.Crashes, cr)
		case "rate":
			if len(args) != 1 && len(args) != 2 {
				return nil, fmt.Errorf("fault: plan %q: want rate:P[:SEED]", spec)
			}
			p.CrashRate = args[0]
			if len(args) == 2 {
				// The seed is a full uint64: parse the raw token rather
				// than the float64 form, which would silently accept
				// negative values and corrupt seeds above 2^53.
				v, err := strconv.ParseUint(parts[2], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: plan %q: bad seed %q", spec, parts[2])
				}
				p.Seed = v
			}
		case "slow":
			if len(args) != 4 {
				return nil, fmt.Errorf("fault: plan %q: want slow:MACHINE:FROM:TO:FACTOR", spec)
			}
			var s Slowdown
			var err error
			if s.Machine, err = integral(0); err != nil {
				return nil, err
			}
			if s.From, err = integral(1); err != nil {
				return nil, err
			}
			if s.To, err = integral(2); err != nil {
				return nil, err
			}
			s.Factor = args[3]
			p.Slowdowns = append(p.Slowdowns, s)
		case "restart":
			if len(args) != 1 {
				return nil, fmt.Errorf("fault: plan %q: want restart:K", spec)
			}
			v, err := integral(0)
			if err != nil {
				return nil, err
			}
			p.RestartAfter = v
		default:
			return nil, fmt.Errorf("fault: unknown plan clause %q in %q (ckpt:…, crash:…, rate:…, slow:…, restart:…)", parts[0], spec)
		}
	}
	if err := p.Validate(k); err != nil {
		return nil, err
	}
	return p, nil
}
