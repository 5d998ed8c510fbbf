package mpc

import (
	"testing"

	"hetmpc/internal/fault"
)

// TestResetStatsRebasesFaultClock is the regression test for the stale
// round-clock bug: ResetStats rewound Stats.Rounds but left the fault
// engine's round-keyed state (last checkpoints, restart-downtime windows,
// replica sizes) pointing at pre-reset round numbers — so a machine that
// had crashed before the reset silently absorbed every post-reset crash
// scheduled inside its stale downtime window, and replays were measured
// against a checkpoint round that no longer existed. After the fix, a
// reset cluster must be bit-identical to a freshly built one.
func TestResetStatsRebasesFaultClock(t *testing.T) {
	plan := &fault.Plan{
		Interval: 4,
		Crashes:  []fault.Crash{{Round: 2, Machine: 1, RestartAfter: 6}},
	}
	build := func() *Cluster {
		c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: plan})
		state := make([][]int, c.K())
		for i := range state {
			state[i] = []int{i, i, i, i, i}
		}
		c.HoldState(heldLen(state))
		return c
	}
	drive := func(c *Cluster, rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			if _, _, err := c.Exchange(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Epoch 1: the crash fires at round 2 (downtime through round 8) and a
	// checkpoint lands at round 4.
	c := build()
	drive(c, 5)
	if got := c.Stats().Crashes; got != 1 {
		t.Fatalf("epoch 1 crashes = %d, want 1", got)
	}
	epoch1 := c.Stats()

	// Epoch 2 after a reset must replay the plan from round 1 exactly as a
	// fresh cluster would. Before the fix: machine 1's stale downUntil = 8
	// swallowed the round-2 crash (Crashes stayed 0), and the stale
	// last-checkpoint/replica state mispriced any recovery that did run.
	c.ResetStats()
	drive(c, 5)
	fresh := build()
	drive(fresh, 5)
	if got, want := c.Stats(), fresh.Stats(); got != want {
		t.Fatalf("post-reset run diverged from a fresh cluster:\nreset: %+v\nfresh: %+v", got, want)
	}
	if got := c.Stats().Crashes; got != 1 {
		t.Fatalf("post-reset crashes = %d, want 1 (stale downtime window swallowed the crash)", got)
	}
	if c.Stats() != epoch1 {
		t.Fatalf("identical epochs measured differently:\nepoch1: %+v\nepoch2: %+v", epoch1, c.Stats())
	}
}

// TestBusyImbalanceEdgeCases pins the documented degenerate behavior: 0 —
// never NaN — on the k == 0 cluster (unreachable through New, which floors
// K at 2, but presentable as a zero-value Cluster) and on clusters where no
// small-machine traffic has flowed, with and without the large machine.
func TestBusyImbalanceEdgeCases(t *testing.T) {
	var zero Cluster
	if got := zero.BusyImbalance(); got != 0 {
		t.Fatalf("zero-value cluster imbalance = %v, want 0", got)
	}

	for _, noLarge := range []bool{false, true} {
		c := newTest(t, Config{N: 64, M: 256, Seed: 1, NoLarge: noLarge})
		if got := c.BusyImbalance(); got != 0 {
			t.Fatalf("noLarge=%v: idle cluster imbalance = %v, want 0", noLarge, got)
		}
		// One lopsided round: only machine 0 speaks. Imbalance is now
		// defined (max/mean over k machines) and must be at least 1.
		outs := make([][]Msg, c.K())
		outs[0] = []Msg{{To: 1, Words: 3, Data: "x"}}
		if _, _, err := c.Exchange(outs, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.BusyImbalance(); got < 1 {
			t.Fatalf("noLarge=%v: imbalance after traffic = %v, want >= 1", noLarge, got)
		}
	}
}
