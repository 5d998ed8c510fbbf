package mpc

import (
	"reflect"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
	"hetmpc/internal/wire"
)

// TestMetricsWordConservation pins the acceptance-criteria law: the
// per-machine send-word counters sum exactly to Stats.TotalWords, and the
// aggregate counters track Stats one for one — including a silent round and
// large-machine traffic.
func TestMetricsWordConservation(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: metrics.New()})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Exchange(ringRound(c, 2+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Large machine speaks, then a silent round.
	if _, _, err := c.Exchange(nil, []Msg{{To: 0, Words: 7, Data: "x"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exchange(nil, nil); err != nil {
		t.Fatal(err)
	}
	snap, st := c.Metrics().Snapshot(), c.Stats()
	if got := labelledSum(snap, "mpc_send_words_total", "machine"); got != st.TotalWords {
		t.Fatalf("Σ send-word counters = %d, Stats.TotalWords = %d", got, st.TotalWords)
	}
	if got := labelledSum(snap, "mpc_recv_words_total", "machine"); got != st.TotalWords {
		t.Fatalf("Σ recv-word counters = %d, Stats.TotalWords = %d (every word sent is received)", got, st.TotalWords)
	}
	if got := sample(snap, "mpc_silent_rounds_total").Value; got != 1 {
		t.Fatalf("mpc_silent_rounds_total = %d, want 1", got)
	}
	if n := len(labelled(snap, "mpc_busy_time", "machine")); n != c.K()+1 {
		t.Fatalf("%d busy gauges, want one per machine (%d)", n, c.K()+1)
	}
	// The round-time histogram saw every makespan contribution, the busy
	// gauges mirror BusyTime, the phase counters partition the totals.
	assertSinksAgree(t, c)
}

// TestMetricsWireByteConservation pins the wire's byte law over a real
// transport — Σ WireBytesOf and the trace's per-round wire_bytes both equal
// Stats.WireBytes — and that the snapshot, which carries model quantities
// only, is identical to the in-process run's.
func TestMetricsWireByteConservation(t *testing.T) {
	run := func(tr wire.Transport) *Cluster {
		c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: metrics.New(), Trace: trace.New(), Transport: tr})
		t.Cleanup(func() { c.Close() })
		for i := 0; i < 3; i++ {
			if _, _, err := c.Exchange(ringRound(c, 3), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	c, inproc := run(wire.NewPipe()), run(nil)
	st := c.Stats()
	if st.WireBytes == 0 {
		t.Fatal("pipe transport moved no bytes")
	}
	links := c.WireBytesOf(Large)
	for i := 0; i < c.K(); i++ {
		links += c.WireBytesOf(i)
	}
	var traced int64
	for _, r := range c.Trace().Rounds() {
		traced += r.WireBytes
	}
	if links != st.WireBytes || traced != st.WireBytes {
		t.Fatalf("Σ WireBytesOf = %d, Σ trace wire_bytes = %d, Stats.WireBytes = %d", links, traced, st.WireBytes)
	}
	if a, b := c.Metrics().Snapshot(), inproc.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("the pipe run's snapshot differs from the in-process run's:\npipe   %+v\ninproc %+v", a, b)
	}
}

// TestMetricsFaultCounters: checkpoint barriers, crashes, recovery rounds
// and replication words reconcile with the Stats fault fields, and the
// crash lands on the victim's counter.
func TestMetricsFaultCounters(t *testing.T) {
	plan := &fault.Plan{Interval: 2, Crashes: []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 1}}}
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: plan, Metrics: metrics.New()})
	state := make([][]int, c.K())
	for i := range state {
		state[i] = []int{i, i, i}
	}
	c.HoldState(heldLen(state))
	for i := 0; i < 4; i++ {
		if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, st := c.Metrics().Snapshot(), c.Stats()
	if st.Crashes != 1 || st.Checkpoints == 0 {
		t.Fatalf("plan did not fire: %+v", st)
	}
	if got := sample(snap, "fault_crashes_total", "machine", "small-1").Value; got != 1 {
		t.Fatalf("victim crash counter = %d, want 1", got)
	}
	if _, ok := labelled(snap, "fault_crashes_total", "machine")["large"]; ok {
		t.Fatal("the large machine has a crash counter")
	}
	if got := sample(snap, "fault_replay_rounds_total").Value; got == 0 || got > int64(st.RecoveryRounds) {
		t.Fatalf("fault_replay_rounds_total = %d, want within (0, %d]", got, st.RecoveryRounds)
	}
	// Checkpoints, recovery rounds, replication words and Σ crashes against
	// Stats.
	assertSinksAgree(t, c)
}

// TestMetricsPhasePartition: the phase-labeled word counters partition the
// total exactly, keyed by the innermost span path (trace collector
// installed).
func TestMetricsPhasePartition(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: metrics.New(), Trace: trace.New()})
	sp := c.Span("build")
	if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
		t.Fatal(err)
	}
	sp.End()
	sp = c.Span("query")
	if _, _, err := c.Exchange(ringRound(c, 3), nil); err != nil {
		t.Fatal(err)
	}
	sp.End()
	words := labelled(c.Metrics().Snapshot(), "mpc_phase_words_total", "phase")
	build, query := words["build"], words["query"]
	if build != int64(2*c.K()) || query != int64(3*c.K()) {
		t.Fatalf("phase words: build %d query %d, want %d and %d", build, query, 2*c.K(), 3*c.K())
	}
	if len(words) != 2 || build+query != c.Stats().TotalWords {
		t.Fatalf("phase partition %v != TotalWords %d", words, c.Stats().TotalWords)
	}
}

// TestMetricsAreObservational: the same workload metered and unmetered
// produces bit-identical Stats — metrics never perturb, the Config.Metrics
// analogue of the nil-collector trace guarantee (the cross-GOMAXPROCS
// golden lives in the top-level metrics_golden_test.go).
func TestMetricsAreObservational(t *testing.T) {
	run := func(reg *metrics.Registry) Stats {
		plan := &fault.Plan{Interval: 2, Crashes: []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 1}}}
		cfg := Config{N: 64, M: 256, Seed: 7, Metrics: reg, Faults: plan, Placement: sched.Adaptive{Alpha: 0.5}}
		cfg.Profile = ZipfProfile(cfg.DeriveK(), 0.8, 0.05)
		c := newTest(t, cfg)
		state := make([][]int, c.K())
		for i := range state {
			state[i] = []int{i}
		}
		c.HoldState(heldLen(state))
		for i := 0; i < 5; i++ {
			if _, _, err := c.Exchange(ringRound(c, 2+i%3), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	if metered, plain := run(metrics.New()), run(nil); metered != plain {
		t.Fatalf("metrics perturbed the run:\nmetered %+v\nplain   %+v", metered, plain)
	}
}
