package mpc

import (
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
	"hetmpc/internal/wire"
)

// counterValue re-looks an instrument up by identity; the registry returns
// the same counter, so this reads the engine's live value.
func counterValue(reg *metrics.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, labels...).Value()
}

// machineCounterSum sums a per-machine counter over every slot of c.
func machineCounterSum(c *Cluster, name, label string) int64 {
	var sum int64
	reg := c.Metrics()
	sum += counterValue(reg, name, label, "large")
	for i := 0; i < c.K(); i++ {
		sum += counterValue(reg, name, label, trace.MachineName(i))
	}
	return sum
}

// TestMetricsWordConservation pins the acceptance-criteria law: the
// per-machine send-word counters sum exactly to Stats.TotalWords, and the
// aggregate counters track Stats one for one — including a silent round and
// large-machine traffic.
func TestMetricsWordConservation(t *testing.T) {
	reg := metrics.New()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: reg})
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
	st := c.Stats()
	if got := machineCounterSum(c, "mpc_send_words_total", "machine"); got != st.TotalWords {
		t.Fatalf("Σ send-word counters = %d, Stats.TotalWords = %d", got, st.TotalWords)
	}
	if got := machineCounterSum(c, "mpc_recv_words_total", "machine"); got != st.TotalWords {
		t.Fatalf("Σ recv-word counters = %d, Stats.TotalWords = %d (every word sent is received)", got, st.TotalWords)
	}
	if got := counterValue(reg, "mpc_words_total"); got != st.TotalWords {
		t.Fatalf("mpc_words_total = %d, want %d", got, st.TotalWords)
	}
	if got := counterValue(reg, "mpc_rounds_total"); got != int64(st.Rounds) {
		t.Fatalf("mpc_rounds_total = %d, Stats.Rounds = %d", got, st.Rounds)
	}
	if got := counterValue(reg, "mpc_silent_rounds_total"); got != 1 {
		t.Fatalf("mpc_silent_rounds_total = %d, want 1", got)
	}
	if got := counterValue(reg, "mpc_messages_total"); got != st.Messages {
		t.Fatalf("mpc_messages_total = %d, Stats.Messages = %d", got, st.Messages)
	}
	if got := reg.Gauge("mpc_makespan").Value(); got != st.Makespan {
		t.Fatalf("mpc_makespan gauge = %v, Stats.Makespan = %v", got, st.Makespan)
	}
	// The round-time histogram saw every makespan contribution, the busy
	// gauges mirror BusyTime, the phase counters partition the totals.
	assertSinksAgree(t, c)
}

// TestMetricsWireByteConservation pins the second law over a real transport:
// the per-link write-byte counters (wire.InstrumentLink) sum exactly to
// Stats.WireBytes, and the frame counters to Stats.Messages.
func TestMetricsWireByteConservation(t *testing.T) {
	reg := metrics.New()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: reg, Transport: wire.NewPipe()})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Exchange(ringRound(c, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.WireBytes == 0 {
		t.Fatal("pipe transport moved no bytes")
	}
	if got := machineCounterSum(c, "wire_link_write_bytes_total", "link"); got != st.WireBytes {
		t.Fatalf("Σ link write-byte counters = %d, Stats.WireBytes = %d", got, st.WireBytes)
	}
	// Every byte written is read back by the destination's drain.
	if got := machineCounterSum(c, "wire_link_read_bytes_total", "link"); got != st.WireBytes {
		t.Fatalf("Σ link read-byte counters = %d, Stats.WireBytes = %d", got, st.WireBytes)
	}
	if got := machineCounterSum(c, "wire_link_frames_total", "link"); got != st.Messages {
		t.Fatalf("Σ link frame counters = %d, Stats.Messages = %d", got, st.Messages)
	}
	if counterValue(reg, "wire_encode_ns_total") <= 0 {
		t.Fatal("encode time not measured")
	}
}

// TestMetricsFaultCounters: checkpoint barriers, crashes, recovery rounds
// and replication words reconcile with the Stats fault fields, and the
// instrumented checkpointers count their snapshot/restore round trips.
func TestMetricsFaultCounters(t *testing.T) {
	reg := metrics.New()
	plan := &fault.Plan{Interval: 2, Crashes: []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 1}}}
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: plan, Metrics: reg})
	state := make([][]int, c.K())
	for i := range state {
		state[i] = []int{i, i, i}
		c.SetCheckpointer(i, sliceCheckpointer{state, i})
	}
	for i := 0; i < 4; i++ {
		if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Crashes != 1 || st.Checkpoints == 0 {
		t.Fatalf("plan did not fire: %+v", st)
	}
	if got := counterValue(reg, "fault_checkpoints_total"); got != int64(st.Checkpoints) {
		t.Fatalf("fault_checkpoints_total = %d, Stats.Checkpoints = %d", got, st.Checkpoints)
	}
	if got := counterValue(reg, "fault_crashes_total", "machine", "small-1"); got != 1 {
		t.Fatalf("victim crash counter = %d, want 1", got)
	}
	if got := machineCounterSum(c, "fault_crashes_total", "machine") - counterValue(reg, "fault_crashes_total", "machine", "large"); got != int64(st.Crashes) {
		t.Fatalf("Σ crash counters = %d, Stats.Crashes = %d", got, st.Crashes)
	}
	if got := counterValue(reg, "fault_recovery_rounds_total"); got != int64(st.RecoveryRounds) {
		t.Fatalf("fault_recovery_rounds_total = %d, Stats.RecoveryRounds = %d", got, st.RecoveryRounds)
	}
	if got := counterValue(reg, "fault_replication_words_total"); got != st.ReplicationWords {
		t.Fatalf("fault_replication_words_total = %d, Stats.ReplicationWords = %d", got, st.ReplicationWords)
	}
	// The victim's recovery performed a snapshot/restore round trip on top
	// of its checkpoint-barrier snapshots.
	if got := counterValue(reg, "fault_restores_total", "machine", "small-1"); got != 1 {
		t.Fatalf("fault_restores_total{small-1} = %d, want 1", got)
	}
	if got := counterValue(reg, "fault_snapshots_total", "machine", "small-1"); got < 2 {
		t.Fatalf("fault_snapshots_total{small-1} = %d, want >= 2 (checkpoints + recovery)", got)
	}
}

// TestMetricsPhasePartition: the phase-labeled word counters partition the
// total exactly, keyed by the innermost span path (trace collector
// installed).
func TestMetricsPhasePartition(t *testing.T) {
	reg := metrics.New()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: reg, Trace: trace.New()})
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
	build := counterValue(reg, "mpc_phase_words_total", "phase", "build")
	query := counterValue(reg, "mpc_phase_words_total", "phase", "query")
	if build != int64(2*c.K()) || query != int64(3*c.K()) {
		t.Fatalf("phase words: build %d query %d, want %d and %d", build, query, 2*c.K(), 3*c.K())
	}
	if build+query != c.Stats().TotalWords {
		t.Fatalf("phase partition %d != TotalWords %d", build+query, c.Stats().TotalWords)
	}
}

// TestMetricsEstimatorInstruments: an adaptive run counts its share
// re-splits and observes estimate deltas.
func TestMetricsEstimatorInstruments(t *testing.T) {
	reg := metrics.New()
	cfg := Config{N: 64, M: 256, Seed: 1, Metrics: reg, Placement: sched.Adaptive{Alpha: 0.5}}
	cfg.Profile = ZipfProfile(cfg.DeriveK(), 0.8, 0.05)
	c := newTest(t, cfg)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(reg, "sched_resplits_total"); got != 3 {
		t.Fatalf("sched_resplits_total = %d, want 3 (one per observed round)", got)
	}
	if got := reg.Histogram("sched_estimate_delta", nil).Count(); got == 0 {
		t.Fatal("estimate-delta histogram saw no observations")
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
			c.SetCheckpointer(i, sliceCheckpointer{state, i})
		}
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
