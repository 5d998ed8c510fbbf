package mpc

import (
	"cmp"
	"math"
	"slices"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// The recovery engine (DESIGN.md §7) runs at the round barrier inside
// Exchange whenever the cluster was built with an active fault.Plan:
//
//   - every Plan.Interval completed rounds it takes a checkpoint barrier:
//     each machine with a registered Checkpointer snapshots its state and
//     replicates it to its capacity-aware buddy, and the replication words
//     are charged to Stats.ReplicationWords and the makespan exactly like
//     ordinary round traffic (the barrier costs one round latency plus the
//     busiest machine's transfer time);
//   - crashes scheduled by the plan are detected at the barrier ending
//     their round; the victim restores from its buddy's replica and replays
//     the rounds since the last checkpoint (or replays cold from its own
//     persisted checkpoint when the buddy died at the same barrier), then
//     re-enters the round barrier. The recovery cost — extra synchronous
//     rounds, restore traffic, restart downtime — lands in
//     Stats.RecoveryRounds, Stats.ReplicationWords and Stats.Makespan.
//
// Because a restored machine replays deterministically to exactly its
// pre-crash state, the algorithm's message pattern and output are identical
// to the fault-free run; what faults change is the measured cost. The
// engine exercises that contract for real: on every crash the victim's
// state makes a genuine round trip through its Checkpointer (Snapshot then
// Restore), so an unfaithful implementation corrupts the run and fails the
// output validation every experiment performs. All engine scans run
// serially in machine order, so crashes, recovery charges and float
// accumulation are deterministic under any GOMAXPROCS.

// faultState is the per-cluster recovery engine: the plan, the registered
// per-machine checkpointers, the buddy map and the replica bookkeeping.
// Only the replica *sizes* are retained (they price the restore
// transfers); the replica payloads themselves are not kept — see the
// modeling note on recoverCrashes.
type faultState struct {
	plan  *fault.Plan
	cks   []fault.Checkpointer // per small machine; nil = not registered
	buddy []int                // capacity-aware buddy of each small machine

	// counters holds each machine's snapshot/restore counter handles on a
	// metered cluster, resolved on the machine's first registration — so
	// the registry gains the series when, and in the order, it always did
	// — and reused by every later one.
	counters []faultCounters

	replicaWords []int // words of each machine's last checkpoint snapshot
	lastCkpt     []int // round of each machine's last checkpoint (0 = none)
	downUntil    []int // last round of each machine's restart downtime

	moved   []float64 // scratch: words moved per machine in a ckpt barrier
	crashed []bool    // scratch: crash set of the current barrier
	restart []int     // scratch: per-victim downtime of the current barrier
}

// faultCounters is one machine's fault instruments (see SetCheckpointer);
// the zero value is "not resolved yet".
type faultCounters struct {
	snapshots, snapshotWords, restores *metrics.Counter
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
		cks:          make([]fault.Checkpointer, c.k),
		buddy:        buddyMap(c.smallCaps),
		counters:     make([]faultCounters, c.k),
		replicaWords: make([]int, c.k),
		lastCkpt:     make([]int, c.k),
		downUntil:    make([]int, c.k),
		moved:        make([]float64, c.k),
		crashed:      make([]bool, c.k),
		restart:      make([]int, c.k),
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

// SetCheckpointer registers small machine i's recoverable state with the
// fault engine; the engine replicates it at checkpoint barriers and
// round-trips it through Snapshot/Restore on a crash. Re-registering
// replaces the previous checkpointer (algorithm phases hand over their live
// state as it moves). A no-op when the cluster has no active fault plan, so
// algorithms register unconditionally at zero cost to fault-free runs.
func (c *Cluster) SetCheckpointer(i int, ck fault.Checkpointer) {
	if c.ft == nil || i < 0 || i >= c.k {
		return
	}
	if reg := c.cfg.Metrics; reg != nil && ck != nil {
		// A metered cluster counts the recovery engine's snapshot/restore
		// round trips per machine. Wrapping is transparent: the engine sees
		// the same Snapshot/Restore results, so the run is bit-identical.
		fc := &c.ft.counters[i]
		if fc.snapshots == nil {
			name := trace.MachineName(i)
			fc.snapshots = reg.Counter("fault_snapshots_total", "machine", name)
			fc.snapshotWords = reg.Counter("fault_snapshot_words_total", "machine", name)
			fc.restores = reg.Counter("fault_restores_total", "machine", name)
		}
		ck = fault.Instrument(ck, fc.snapshots, fc.snapshotWords, fc.restores)
	}
	c.ft.cks[i] = ck
}

// slowCost returns the effective per-word cost of slot for the current
// round, folding in any transient slowdown window of the fault plan.
func (c *Cluster) slowCost(slot int) float64 {
	cost := c.invCost[slot]
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

// checkpointBarrier snapshots every registered machine's state and
// replicates it to the machine's buddy. The replication traffic is charged
// like any other round: each owner sends its state words, each buddy
// receives them, the barrier costs one round latency plus the busiest
// machine's transfer time under the cluster profile.
func (c *Cluster) checkpointBarrier(r int) {
	ft := c.ft
	any := false
	var barrierWords int64
	for i := 0; i < c.k; i++ {
		ck := ft.cks[i]
		if ck == nil {
			continue
		}
		any = true
		// The snapshot payload is only needed for its accounted size: the
		// buddy's copy is re-derivable from the deterministic simulation,
		// so retaining it would only duplicate the live state in memory.
		_, words := ck.Snapshot()
		ft.replicaWords[i] = words
		ft.lastCkpt[i] = r
		if words > 0 {
			barrierWords += int64(words)
			ft.moved[i] += float64(words)
			ft.moved[ft.buddy[i]] += float64(words)
		}
	}
	if !any {
		return // nothing registered: no state to replicate, no barrier
	}
	roundMax := 0.0
	argSlot := -1
	busy := c.exch.busy
	clear(busy)
	for i := 0; i < c.k; i++ {
		w := ft.moved[i]
		if w == 0 {
			continue
		}
		ft.moved[i] = 0
		// slowCost folds in any transient slowdown window active at this
		// round, so replication is priced like the round's own traffic.
		t := w * c.slowCost(1+i)
		c.busy[1+i] += t
		busy[1+i] = t
		if t > roundMax {
			roundMax, argSlot = t, 1+i
		}
	}
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
// runs the recovery protocol for each victim in machine order. The crash
// set is computed first so that two buddies dying at the same barrier see
// each other dead (the replay path).
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
	for i := 0; i < c.k; i++ {
		if !ft.crashed[i] {
			continue
		}
		buddy := ft.buddy[i]
		replay := r - ft.lastCkpt[i]
		var rec, replayWork, words int
		if ft.crashed[buddy] || ft.downUntil[buddy] >= r {
			// The buddy died at the same barrier (or is still down from
			// an earlier crash), taking the hot replica with it: the
			// victim restores from its own persisted checkpoint and
			// replays cold — no network transfer, but detection, the
			// stable read and every replayed round pay double latency
			// and double re-execution work.
			rec = 2 + 2*replay + ft.restart[i]
			replayWork = 2 * replay
		} else {
			// Restore the buddy's replica over the network, then replay
			// the rounds since that checkpoint.
			words = ft.replicaWords[i]
			rec = 1 + replay + ft.restart[i]
			replayWork = replay
		}
		if ck := ft.cks[i]; ck != nil {
			// In the modeled protocol the victim restores the buddy's
			// checkpoint replica and replays forward; by determinism that
			// reconstructs exactly the pre-crash state, so the simulator
			// performs the reconstruction by round-tripping the live
			// state through the Checkpointer (the replica payload itself
			// is re-derivable and never retained). The round trip is a
			// real exercise of the interface: a Restore that does not
			// faithfully reinstall what Snapshot returned corrupts the
			// run and fails the output validation downstream.
			data, _ := ck.Snapshot()
			ck.Restore(data)
		}
		t := 0.0
		var ti, tb, replayT float64
		if words > 0 {
			// slowCost prices the restore like round traffic, including
			// any transient slowdown window covering this round.
			ti = float64(words) * c.slowCost(1+i)
			tb = float64(words) * c.slowCost(1+buddy)
			c.busy[1+i] += ti
			c.busy[1+buddy] += tb
			t = math.Max(ti, tb)
		}
		// A replayed round re-executes the victim's work since the
		// checkpoint; charge it the victim's historical mean per-round
		// busy time, so replaying a slow or heavily loaded machine costs
		// proportionally more than replaying an idle one.
		if replayWork > 0 && r > 0 {
			replayT = float64(replayWork) * c.busy[1+i] / float64(r)
			c.busy[1+i] += replayT
			t += replayT
		}
		ft.downUntil[i] = r + ft.restart[i]
		// One record per victim: each victim's recovery is a distinct
		// makespan contribution, so conservation over the ledger stays
		// exact even when several machines die at one barrier.
		busy := c.exch.busy
		clear(busy)
		busy[1+i] = ti + replayT
		busy[1+buddy] = tb
		arg := i
		if tb > ti+replayT {
			arg = buddy
		}
		c.charge(trace.Round{
			Kind:             trace.KindRecovery,
			MaxTime:          t,
			Makespan:         float64(rec)*c.latency + t,
			Argmax:           arg,
			Victim:           i,
			Crashes:          1,
			RecoveryRounds:   rec,
			ReplayRounds:     replayWork,
			ReplicationWords: int64(words),
			Busy:             busy,
		})
	}
	for i := 0; i < c.k; i++ {
		ft.crashed[i] = false
	}
}
