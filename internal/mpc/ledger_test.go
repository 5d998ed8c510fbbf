package mpc

import (
	"math"
	"reflect"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// sample returns the snapshot's sample of name with the given label pair
// (none = the unlabelled sample); the zero Sample when there is none.
func sample(snap []metrics.Sample, name string, label ...string) metrics.Sample {
	for _, s := range snap {
		if s.Name != name {
			continue
		}
		if len(label) == 0 && len(s.Labels) == 0 || len(label) == 2 && s.Labels[label[0]] == label[1] {
			return s
		}
	}
	return metrics.Sample{}
}

// labelled returns the counter samples of name keyed by their label value.
func labelled(snap []metrics.Sample, name, label string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range snap {
		if s.Name == name {
			out[s.Labels[label]] = s.Value
		}
	}
	return out
}

// labelledSum sums the counter samples of name over their label values.
func labelledSum(snap []metrics.Sample, name, label string) int64 {
	var sum int64
	for _, v := range labelled(snap, name, label) {
		sum += v
	}
	return sum
}

// withinULPs reports whether b is at most n float64 steps from a.
func withinULPs(a, b float64, n int) bool {
	for ; a != b && n > 0; n-- {
		a = math.Nextafter(a, b)
	}
	return a == b
}

// assertSinksAgree checks that the metrics snapshot of a fresh metered
// cluster — and its trace timeline, when it has a collector — are folds of
// the same ledger Stats was folded from: one mpc_round_time observation per
// makespan contribution summing bit-exactly to the makespan, every counter
// equal to its Stats field, the phase-labelled counters partitioning the
// totals, the busy gauges equal to BusyTime (within the one allowance
// below), and, under a collector, the registry equal to metrics.Fold of the
// timeline.
func assertSinksAgree(t *testing.T, c *Cluster) {
	t.Helper()
	snap, st := c.Metrics().Snapshot(), c.Stats()
	rt := sample(snap, "mpc_round_time")
	if got, want := rt.Count, int64(st.Rounds+st.Checkpoints+st.Crashes); got != want {
		t.Errorf("mpc_round_time holds %d observations, want %d (one per round, checkpoint and recovery)", got, want)
	}
	if rt.Sum != st.Makespan {
		t.Errorf("mpc_round_time sum = %v, Stats.Makespan = %v", rt.Sum, st.Makespan)
	}
	if got := sample(snap, "mpc_makespan").Gauge; got != st.Makespan {
		t.Errorf("mpc_makespan gauge = %v, Stats.Makespan = %v", got, st.Makespan)
	}
	for _, cv := range []struct {
		name      string
		got, want int64
	}{
		{"mpc_rounds_total", sample(snap, "mpc_rounds_total").Value, int64(st.Rounds)},
		{"mpc_messages_total", sample(snap, "mpc_messages_total").Value, st.Messages},
		{"mpc_words_total", sample(snap, "mpc_words_total").Value, st.TotalWords},
		{"Σ mpc_send_words_total", labelledSum(snap, "mpc_send_words_total", "machine"), st.TotalWords},
		{"Σ mpc_recv_words_total", labelledSum(snap, "mpc_recv_words_total", "machine"), st.TotalWords},
		{"mpc_speculation_words_total", sample(snap, "mpc_speculation_words_total").Value, st.SpeculationWords},
		{"fault_checkpoints_total", sample(snap, "fault_checkpoints_total").Value, int64(st.Checkpoints)},
		{"Σ fault_crashes_total", labelledSum(snap, "fault_crashes_total", "machine"), int64(st.Crashes)},
		{"fault_recovery_rounds_total", sample(snap, "fault_recovery_rounds_total").Value, int64(st.RecoveryRounds)},
		{"fault_replication_words_total", sample(snap, "fault_replication_words_total").Value, st.ReplicationWords},
	} {
		if cv.got != cv.want {
			t.Errorf("%s = %d, Stats says %d", cv.name, cv.got, cv.want)
		}
	}
	rounds := labelledSum(snap, "mpc_phase_rounds_total", "phase")
	words := labelledSum(snap, "mpc_phase_words_total", "phase")
	if rounds != int64(st.Rounds) || words != st.TotalWords {
		t.Errorf("phase counters sum to (%d rounds, %d words), totals are (%d, %d)", rounds, words, st.Rounds, st.TotalWords)
	}
	// The gauge sums the records' busy vectors, BusyTime the engine's
	// increments: the same additions but for one. A recovery that restores a
	// replica and then replays adds ti and replayT to BusyTime one at a time
	// and records ti+replayT, so its victim's two sums may part in the last
	// bits. Each such recovery on the timeline allows its victim two ulps;
	// every other gauge, and every gauge of an untraced run, is exact.
	tr := c.Trace()
	ulps := map[int]int{}
	if tr != nil {
		for _, r := range tr.Rounds() {
			if r.Kind == trace.KindRecovery && r.ReplicationWords > 0 && r.ReplayRounds > 0 {
				ulps[r.Victim] += 2
			}
		}
	}
	for id := Large; id < c.K(); id++ {
		got, want := sample(snap, "mpc_busy_time", "machine", trace.MachineName(id)).Gauge, c.BusyTime(id)
		if !withinULPs(got, want, ulps[id]) {
			t.Errorf("mpc_busy_time{%s} = %v, BusyTime = %v, more than %d ulps apart (first disagreeing gauge)", trace.MachineName(id), got, want, ulps[id])
			break
		}
	}

	if tr == nil {
		return
	}
	if int64(tr.Len()) != rt.Count {
		t.Errorf("trace holds %d records, mpc_round_time %d observations", tr.Len(), rt.Count)
	}
	kinds := map[string]int{}
	for _, r := range tr.Rounds() {
		kinds[r.Kind]++
	}
	if kinds[trace.KindExchange] != st.Rounds || kinds[trace.KindCheckpoint] != st.Checkpoints || kinds[trace.KindRecovery] != st.Crashes {
		t.Errorf("trace records per kind %v, Stats has %d rounds, %d checkpoints, %d crashes", kinds, st.Rounds, st.Checkpoints, st.Crashes)
	}
	sum := trace.Summarize(tr.Rounds())
	if sum.Makespan != st.Makespan || sum.Words != st.TotalWords {
		t.Errorf("trace summary (%v, %d) != Stats (%v, %d)", sum.Makespan, sum.Words, st.Makespan, st.TotalWords)
	}
	if fold := metrics.Fold(tr.Rounds()); !reflect.DeepEqual(fold, snap) {
		t.Errorf("the registry is not the fold of the timeline:\nregistry %+v\nfold     %+v", snap, fold)
	}
}

// TestLedgerSinksAgree is the property the single emission point buys:
// under every kind of contribution — exchange rounds inside and outside
// spans, a silent round, checkpoint barriers, an explicit and rate-derived
// crashes — Stats, the trace timeline and the metrics snapshot tell one
// story, and the snapshot tells it the same way whether or not a collector
// is attached.
func TestLedgerSinksAgree(t *testing.T) {
	run := func(tr *trace.Collector) *Cluster {
		plan := &fault.Plan{
			Interval:  2,
			Crashes:   []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 1}},
			CrashRate: 0.02,
		}
		c := newTest(t, Config{N: 64, M: 256, Seed: 3, Faults: plan, Metrics: metrics.New(), Trace: tr})
		state := make([][]int, c.K())
		for i := range state {
			state[i] = []int{i, i, i}
		}
		c.HoldState(heldLen(state))
		exchange := func(outs [][]Msg, outLarge []Msg) {
			t.Helper()
			if _, _, err := c.Exchange(outs, outLarge); err != nil {
				t.Fatal(err)
			}
		}
		exchange(ringRound(c, 2), nil) // untagged
		build := c.Span("build")
		exchange(ringRound(c, 3), nil)
		exchange(nil, nil) // silent, inside a span
		inner := c.Span("sort")
		exchange(ringRound(c, 1), []Msg{{To: 0, Words: 7, Data: "x"}})
		exchange(ringRound(c, 4), nil)
		inner.End()
		build.End()
		query := c.Span("query")
		for i := 0; i < 4; i++ {
			exchange(ringRound(c, 2+i), nil)
		}
		query.End()
		exchange(nil, nil) // silent, untagged
		if c.Phase() != "" {
			t.Fatalf("span path %q left open", c.Phase())
		}
		return c
	}

	traced := run(trace.New())
	if st := traced.Stats(); st.Checkpoints == 0 || st.Crashes < 2 {
		t.Fatalf("plan did not exercise checkpoints and both crash sources: %+v", st)
	}
	assertSinksAgree(t, traced)

	metered := run(nil)
	assertSinksAgree(t, metered)
	if metered.Stats() != traced.Stats() {
		t.Fatalf("tracing perturbed the run:\ntraced  %+v\nmetered %+v", traced.Stats(), metered.Stats())
	}
	with, without := traced.Metrics().Snapshot(), metered.Metrics().Snapshot()
	if len(labelled(with, "mpc_phase_rounds_total", "phase")) < 4 || !reflect.DeepEqual(with, without) {
		t.Errorf("snapshot with a collector %+v\nwithout %+v", with, without)
	}
}

// TestLedgerBusyRecoveryRounding runs a workload where the one inexact law
// shows: a restore-and-replay recovery leaves small-5's busy gauge one ulp
// from BusyTime. assertSinksAgree must accept that gauge, and only because
// the timeline shows the recovery that explains it.
func TestLedgerBusyRecoveryRounding(t *testing.T) {
	plan := &fault.Plan{
		Interval:  2,
		Crashes:   []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 1}},
		CrashRate: 0.05,
	}
	c := newTest(t, Config{N: 64, M: 256, Seed: 124, Faults: plan, Metrics: metrics.New(), Trace: trace.New()})
	state := make([][]int, c.K())
	for i := range state {
		state[i] = []int{i, i, i}
	}
	c.HoldState(heldLen(state))
	for i := 0; i < 30; i++ {
		if _, _, err := c.Exchange(ringRound(c, 3+7*(i%5)), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Metrics().Snapshot()
	parted := 0
	for id := Large; id < c.K(); id++ {
		if sample(snap, "mpc_busy_time", "machine", trace.MachineName(id)).Gauge != c.BusyTime(id) {
			parted++
		}
	}
	if parted == 0 {
		t.Fatal("every busy gauge equals BusyTime: this run no longer exercises the recovery rounding (if the engine now adds what it records, drop the allowance in assertSinksAgree)")
	}
	assertSinksAgree(t, c)
}
