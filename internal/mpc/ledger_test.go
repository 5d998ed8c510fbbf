package mpc

import (
	"maps"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// labelled returns the counter samples of name keyed by their label value.
func labelled(reg *metrics.Registry, name, label string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			out[s.Labels[label]] = s.Value
		}
	}
	return out
}

// assertSinksAgree checks that the registry of a fresh metered cluster —
// and its trace timeline, when it has a collector — are folds of the same
// ledger Stats was folded from: one mpc_round_time observation per makespan
// contribution summing bit-exactly to the makespan, every counter equal to
// its Stats field and to the per-kind record count, the phase-labelled
// counters partitioning the totals, and the busy gauges equal to BusyTime
// after the last barrier.
func assertSinksAgree(t *testing.T, c *Cluster) {
	t.Helper()
	reg, st := c.Metrics(), c.Stats()
	rt := reg.Histogram("mpc_round_time", nil)
	if got, want := rt.Count(), int64(st.Rounds+st.Checkpoints+st.Crashes); got != want {
		t.Errorf("mpc_round_time holds %d observations, want %d (one per round, checkpoint and recovery)", got, want)
	}
	if got := rt.Sum(); got != st.Makespan {
		t.Errorf("mpc_round_time sum = %v, Stats.Makespan = %v", got, st.Makespan)
	}
	if got := reg.Gauge("mpc_makespan").Value(); got != st.Makespan {
		t.Errorf("mpc_makespan gauge = %v, Stats.Makespan = %v", got, st.Makespan)
	}
	var crashes int64
	for _, v := range labelled(reg, "fault_crashes_total", "machine") {
		crashes += v
	}
	for _, cv := range []struct {
		name      string
		got, want int64
	}{
		{"mpc_rounds_total", counterValue(reg, "mpc_rounds_total"), int64(st.Rounds)},
		{"mpc_messages_total", counterValue(reg, "mpc_messages_total"), st.Messages},
		{"mpc_words_total", counterValue(reg, "mpc_words_total"), st.TotalWords},
		{"Σ mpc_send_words_total", machineCounterSum(c, "mpc_send_words_total", "machine"), st.TotalWords},
		{"Σ mpc_recv_words_total", machineCounterSum(c, "mpc_recv_words_total", "machine"), st.TotalWords},
		{"mpc_speculation_words_total", counterValue(reg, "mpc_speculation_words_total"), st.SpeculationWords},
		{"fault_checkpoints_total", counterValue(reg, "fault_checkpoints_total"), int64(st.Checkpoints)},
		{"Σ fault_crashes_total", crashes, int64(st.Crashes)},
		{"fault_recovery_rounds_total", counterValue(reg, "fault_recovery_rounds_total"), int64(st.RecoveryRounds)},
		{"fault_replication_words_total", counterValue(reg, "fault_replication_words_total"), st.ReplicationWords},
	} {
		if cv.got != cv.want {
			t.Errorf("%s = %d, Stats says %d", cv.name, cv.got, cv.want)
		}
	}
	phaseRounds := labelled(reg, "mpc_phase_rounds_total", "phase")
	var rounds, words int64
	for _, v := range phaseRounds {
		rounds += v
	}
	for _, v := range labelled(reg, "mpc_phase_words_total", "phase") {
		words += v
	}
	if rounds != int64(st.Rounds) || words != st.TotalWords {
		t.Errorf("phase counters sum to (%d rounds, %d words), totals are (%d, %d)", rounds, words, st.Rounds, st.TotalWords)
	}
	for id := Large; id < c.K(); id++ {
		if got := reg.Gauge("mpc_busy_time", "machine", trace.MachineName(id)).Value(); got != c.BusyTime(id) {
			t.Errorf("mpc_busy_time{%s} = %v, BusyTime = %v (first stale gauge)", trace.MachineName(id), got, c.BusyTime(id))
			break
		}
	}

	tr := c.Trace()
	if tr == nil {
		return
	}
	if int64(tr.Len()) != rt.Count() {
		t.Errorf("trace holds %d records, mpc_round_time %d observations", tr.Len(), rt.Count())
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
	byPhase := map[string]int64{}
	for _, p := range sum.Phases {
		if p.Rounds > 0 {
			byPhase[p.Phase] = int64(p.Rounds)
		}
	}
	for phase, v := range phaseRounds {
		if v == 0 {
			delete(phaseRounds, phase)
		}
	}
	if !maps.Equal(byPhase, phaseRounds) {
		t.Errorf("per-phase rounds: trace %v, registry %v", byPhase, phaseRounds)
	}
}

// TestLedgerSinksAgree is the property the single emission point buys:
// under every kind of contribution — exchange rounds inside and outside
// spans, a silent round, checkpoint barriers, an explicit and rate-derived
// crashes — Stats, the trace timeline and the registry tell one story, and
// the registry tells it the same way whether or not a collector is attached.
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
			c.SetCheckpointer(i, sliceCheckpointer{state, i})
		}
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
	for _, name := range []string{"mpc_phase_rounds_total", "mpc_phase_words_total"} {
		with, without := labelled(traced.Metrics(), name, "phase"), labelled(metered.Metrics(), name, "phase")
		if len(with) < 4 || !maps.Equal(with, without) {
			t.Errorf("%s with a collector %v, without %v", name, with, without)
		}
	}
}
