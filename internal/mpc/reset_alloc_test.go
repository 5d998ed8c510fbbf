package mpc

import (
	"testing"
)

// TestResetStatsScratchMatchesFresh pins the ResetStats scratch contract:
// a mid-run reset returns the traffic-proportional scratch (sender list,
// decoder arenas), so a reset cluster re-warms and then
// allocates exactly what a fresh cluster does in steady state — no more (a
// leaked pool would hide re-growth) and no less (a retained pool would mask
// the release).
func TestResetStatsScratchMatchesFresh(t *testing.T) {
	steady := func(c *Cluster) float64 {
		outs := ringRound(c, 2)
		for i := 0; i < 5; i++ {
			if _, _, err := c.Exchange(outs, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() { c.Exchange(outs, nil) })
	}

	fresh := newTest(t, Config{N: 64, M: 256, Seed: 1})
	want := steady(fresh)

	reset := newTest(t, Config{N: 64, M: 256, Seed: 1})
	steady(reset) // grow the scratch to its high-water mark
	reset.ResetStats()
	if reset.exch.senders != nil {
		t.Fatal("ResetStats kept the routing scratch alive")
	}
	if got := steady(reset); got != want {
		t.Errorf("reset cluster steady state allocates %v per round, fresh cluster %v", got, want)
	}
}

// TestResetStatsThenNewShapeDelivers drives two different routing shapes
// around a reset: the recycled scratch of the pre-reset shape must not leak
// counts or cursors into post-reset rounds.
func TestResetStatsThenNewShapeDelivers(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	k := c.K()
	ring := ringRound(c, 2)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Exchange(ring, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.ResetStats()
	// A different shape: everyone sends two messages, to both neighbors.
	outs := make([][]Msg, k)
	for i := 0; i < k; i++ {
		outs[i] = []Msg{
			{To: (i + 1) % k, Words: 1, Data: i},
			{To: (i + k - 1) % k, Words: 1, Data: -i},
		}
	}
	ins, _, err := c.Exchange(outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if len(ins[i]) != 2 {
			t.Fatalf("machine %d received %d messages, want 2", i, len(ins[i]))
		}
		for _, m := range ins[i] {
			want := m.From
			if m.Data != want && m.Data != -want {
				t.Fatalf("machine %d received %v from %d", i, m.Data, m.From)
			}
		}
	}
}

// TestExchangeAlternatingShapesDeliver alternates two routing shapes over
// the recycled counters and cursors: every round must deliver exactly
// its own messages to their addressees.
func TestExchangeAlternatingShapesDeliver(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	k := c.K()
	shapes := [][][]Msg{ringRound(c, 2), nil}
	// Shape 1: reversed ring with doubled fan-out from machine 0.
	rev := make([][]Msg, k)
	for i := 0; i < k; i++ {
		rev[i] = []Msg{{To: (i + k - 1) % k, Words: 1, Data: 100 + i}}
	}
	rev[0] = append(rev[0], Msg{To: k / 2, Words: 3, Data: -1})
	shapes[1] = rev
	for round := 0; round < 8; round++ {
		outs := shapes[round%2]
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range ins {
			total += len(ins[i])
			for _, m := range ins[i] {
				if m.To != i {
					t.Fatalf("round %d: machine %d received a message addressed to %d", round, i, m.To)
				}
			}
		}
		want := k
		if round%2 == 1 {
			want = k + 1
		}
		if total != want {
			t.Fatalf("round %d delivered %d messages, want %d", round, total, want)
		}
	}
}
