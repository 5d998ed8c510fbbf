package mpc

import (
	"cmp"
	"math"
	"slices"

	"hetmpc/internal/fault"
	"hetmpc/internal/trace"
)

// The recovery engine (DESIGN.md §7) runs at the round barrier inside
// Exchange whenever the cluster was built with an active fault.Plan:
//
//   - every Plan.Interval completed rounds it takes a checkpoint barrier:
//     each machine's held words (HoldState) are replicated to its
//     capacity-aware buddy and charged to Stats.ReplicationWords and the
//     makespan exactly like ordinary round traffic (the barrier costs one
//     round latency plus the busiest machine's transfer time);
//   - crashes scheduled by the plan are detected at the barrier ending
//     their round; the victim restores from its buddy's replica and replays
//     the rounds since the last checkpoint (or replays cold from its own
//     persisted checkpoint when the buddy died at the same barrier), then
//     re-enters the round barrier. The recovery cost — extra synchronous
//     rounds, restore traffic, restart downtime — lands in
//     Stats.RecoveryRounds, Stats.ReplicationWords and Stats.Makespan.
//     The victims of one barrier recover concurrently, so the barrier
//     costs its slowest victim's recovery, not the sum of them.
//
// Because a restored machine replays deterministically to exactly its
// pre-crash state, the algorithm's message pattern and output are identical
// to the fault-free run; what faults change is the measured cost. The
// simulator therefore keeps no replica payload, only its size: the live
// state already is what the replay would rebuild. All engine scans run
// serially in machine order, so crashes, recovery charges and float
// accumulation are deterministic under any GOMAXPROCS.

// faultState is the per-cluster recovery engine: the plan, the held-words
// view, the buddy map and the replica bookkeeping. Only the replica *sizes*
// are kept (they price the restore transfers).
type faultState struct {
	plan  *fault.Plan
	held  func(i int) int // words small machine i holds; nil = nothing registered
	buddy []int           // capacity-aware buddy of each small machine

	replicaWords []int // words of each machine's last checkpoint
	lastCkpt     []int // round of each machine's last checkpoint (0 = none)
	downUntil    []int // last round of each machine's restart downtime

	moved   []float64 // scratch: words moved per machine in a ckpt barrier
	crashed []bool    // scratch: crash set of the current barrier
	restart []int     // scratch: per-victim downtime of the current barrier
	victims []victim  // scratch: the current barrier's priced victims (cap k)
}

// victim is one crash of a recovery barrier as pass 1 of recoverCrashes
// priced it: its recovery rounds (replay of them re-executed work), restore
// words, the victim's and buddy's restore charges, the replay charge, and t,
// the victim's transfer-plus-replay time.
type victim struct {
	machine, buddy     int
	rec, replay, words int
	ti, tb, replayT, t float64
}

// applyFaults validates the plan and builds the engine state. Inactive
// plans (nil or zero) install nothing, keeping the run bit-identical to a
// fault-free cluster.
func (c *Cluster) applyFaults(p *fault.Plan) error {
	if err := p.Validate(c.k); err != nil {
		return err
	}
	if !p.Active() {
		return nil
	}
	c.ft = &faultState{
		plan:         p,
		buddy:        buddyMap(c.smallCaps),
		replicaWords: make([]int, c.k),
		lastCkpt:     make([]int, c.k),
		downUntil:    make([]int, c.k),
		moved:        make([]float64, c.k),
		crashed:      make([]bool, c.k),
		restart:      make([]int, c.k),
		victims:      make([]victim, 0, c.k),
	}
	return nil
}

// buddyMap pairs every machine with a capacity-aware buddy: machines are
// ranked by capacity (descending, index ascending on ties) and the machine
// at rank t is paired with rank (t + ⌈k/2⌉) mod k, so the largest machines
// hold the replicas of the smallest and no machine is its own buddy
// (k >= 2 always). The map is a pure function of the capacity vector, hence
// deterministic.
func buddyMap(caps []int) []int {
	k := len(caps)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if caps[a] != caps[b] {
			return cmp.Compare(caps[b], caps[a]) // descending capacity
		}
		return cmp.Compare(a, b)
	})
	shift := (k + 1) / 2
	buddy := make([]int, k)
	for t, i := range order {
		buddy[i] = order[(t+shift)%k]
	}
	return buddy
}

// FaultsActive reports whether the cluster was built with an active fault
// plan (Config.Faults).
func (c *Cluster) FaultsActive() bool { return c.ft != nil }

// Faults returns the cluster's fault plan, nil when fault injection is off
// — including when Config.Faults was a non-nil but inactive (zero) plan.
func (c *Cluster) Faults() *fault.Plan {
	if c.ft == nil {
		return nil
	}
	return c.ft.plan
}

// Buddy returns the capacity-aware replication buddy of small machine i
// (-1 when fault injection is off).
func (c *Cluster) Buddy(i int) int {
	if c.ft == nil {
		return -1
	}
	return c.ft.buddy[i]
}

// HoldState registers words(i), the words small machine i holds, as the
// recoverable state every checkpoint barrier reads — at the barrier, so it
// follows state that changes size between rounds. Registering replaces the
// previous view (phases hand over their live state as it moves); nil
// unregisters. A no-op without an active fault plan, so algorithms register
// unconditionally at zero cost to fault-free runs.
func (c *Cluster) HoldState(words func(i int) int) {
	if c.ft != nil {
		c.ft.held = words
	}
}

// slowCost returns the effective per-word cost of slot for the current
// round, folding in any transient slowdown window of the fault plan.
func (c *Cluster) slowCost(slot int) float64 {
	cost := c.cost[slot]
	if c.ft != nil && slot > 0 && c.ft.plan.HasSlowdowns() {
		cost *= c.ft.plan.SlowFactor(c.stats.Rounds, slot-1)
	}
	return cost
}

// postRoundFaults runs the barrier work of the fault engine after round r
// completed: the checkpoint barrier when due, then crash detection and
// recovery. Serial, machine order, deterministic.
func (c *Cluster) postRoundFaults() {
	if c.ft == nil {
		return
	}
	r := c.stats.Rounds
	if iv := c.ft.plan.Interval; iv > 0 && r%iv == 0 {
		c.checkpointBarrier(r)
	}
	c.recoverCrashes(r)
}

// checkpointBarrier replicates every machine's held words to its buddy.
// The replication traffic is charged like any other round: each owner sends
// its state words, each buddy receives them, the barrier costs one round
// latency plus the busiest machine's transfer time under the cluster
// profile.
func (c *Cluster) checkpointBarrier(r int) {
	ft := c.ft
	if ft.held == nil {
		return // nothing registered: no state to replicate, no barrier
	}
	var barrierWords int64
	for i := 0; i < c.k; i++ {
		words := ft.held(i)
		ft.replicaWords[i] = words
		ft.lastCkpt[i] = r
		if words > 0 {
			barrierWords += int64(words)
			ft.moved[i] += float64(words)
			ft.moved[ft.buddy[i]] += float64(words)
		}
	}
	busy := c.exch.busy
	clear(busy)
	for i := 0; i < c.k; i++ {
		// slowCost folds in any transient slowdown window active at this
		// round, so replication is priced like the round's own traffic.
		if w := ft.moved[i]; w != 0 {
			ft.moved[i] = 0
			busy[1+i] = w * c.slowCost(1+i)
		}
	}
	roundMax, argSlot := c.settle(busy)
	c.charge(trace.Round{
		Kind:             trace.KindCheckpoint,
		MaxTime:          roundMax,
		Makespan:         c.latency + roundMax,
		Argmax:           trace.SlotMachine(argSlot),
		Victim:           trace.None,
		ReplicationWords: barrierWords,
		Checkpoints:      1,
		Busy:             busy,
	})
}

// recoverCrashes detects the crash set of the barrier ending round r and
// prices it as one concurrent recovery episode. The crash set is computed
// first so that two buddies dying at the same barrier see each other dead
// (the replay path). Pass 1 prices every victim in machine order — its
// recovery rounds, restore and replay — and advances the busy totals; pass 2
// emits one record per victim. The victims recover concurrently: buddyMap is
// a permutation, so a live machine serves at most one restore at a barrier
// and no two victims share a machine or a link. The barrier therefore waits
// for its slowest victim, whose record (the first in machine order on a tie)
// carries the barrier's whole makespan; the others carry 0.
func (c *Cluster) recoverCrashes(r int) {
	ft := c.ft
	p := ft.plan
	if len(p.Crashes) == 0 && p.CrashRate == 0 {
		return
	}
	any := false
	for i := 0; i < c.k; i++ {
		restart, crashed := p.CrashAt(r, i, c.cfg.Seed)
		if crashed && ft.downUntil[i] >= r {
			// The machine is still inside a previous crash's restart
			// downtime: a failure of an already-down machine is absorbed
			// by the recovery in flight, not a fresh crash event.
			crashed = false
		}
		ft.crashed[i], ft.restart[i] = crashed, restart
		any = any || crashed
	}
	if !any {
		return
	}
	victims := ft.victims[:0]
	slowest, barrier := 0, 0.0
	for i := 0; i < c.k; i++ {
		if !ft.crashed[i] {
			continue
		}
		v := victim{machine: i, buddy: ft.buddy[i]}
		replay := r - ft.lastCkpt[i]
		if ft.crashed[v.buddy] || ft.downUntil[v.buddy] >= r {
			// The buddy died at the same barrier (or is still down from
			// an earlier crash), taking the hot replica with it: the
			// victim restores from its own persisted checkpoint and
			// replays cold — no network transfer, but detection, the
			// stable read and every replayed round pay double latency
			// and double re-execution work.
			v.rec = 2 + 2*replay + ft.restart[i]
			v.replay = 2 * replay
		} else {
			// Restore the buddy's replica over the network, then replay
			// the rounds since that checkpoint.
			v.words = ft.replicaWords[i]
			v.rec = 1 + replay + ft.restart[i]
			v.replay = replay
		}
		if v.words > 0 {
			// slowCost prices the restore like round traffic, including
			// any transient slowdown window covering this round.
			v.ti = float64(v.words) * c.slowCost(1+i)
			v.tb = float64(v.words) * c.slowCost(1+v.buddy)
			c.busy[1+i] += v.ti
			c.busy[1+v.buddy] += v.tb
			v.t = math.Max(v.ti, v.tb)
		}
		// A replayed round re-executes the victim's work since the
		// checkpoint; charge it the victim's historical mean per-round
		// busy time, so replaying a slow or heavily loaded machine costs
		// proportionally more than replaying an idle one.
		if v.replay > 0 && r > 0 {
			v.replayT = float64(v.replay) * c.busy[1+i] / float64(r)
			c.busy[1+i] += v.replayT
			v.t += v.replayT
		}
		ft.downUntil[i] = r + ft.restart[i]
		if cost := float64(v.rec)*c.latency + v.t; len(victims) == 0 || cost > barrier {
			slowest, barrier = len(victims), cost
		}
		victims = append(victims, v)
	}
	for j, v := range victims {
		// One record per victim keeps each victim's rounds, words and
		// charges on the ledger; only the slowest carries the makespan.
		busy := c.exch.busy
		clear(busy)
		busy[1+v.machine] = v.ti + v.replayT
		busy[1+v.buddy] = v.tb
		arg := v.machine
		if v.tb > v.ti+v.replayT {
			arg = v.buddy
		}
		makespan := 0.0
		if j == slowest {
			makespan = barrier
		}
		c.charge(trace.Round{
			Kind:             trace.KindRecovery,
			MaxTime:          v.t,
			Makespan:         makespan,
			Argmax:           arg,
			Victim:           v.machine,
			Crashes:          1,
			RecoveryRounds:   v.rec,
			ReplayRounds:     v.replay,
			ReplicationWords: int64(v.words),
			Busy:             busy,
		})
	}
	clear(ft.crashed)
}
