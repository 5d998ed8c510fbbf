package mpc

import (
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// TestSpanDeltaAndNesting: Span.End returns the Stats delta of the scope,
// nested spans attribute each round to the innermost path (no double
// counting across the phase partition), and End-by-depth cleans up inner
// spans leaked by early returns.
func TestSpanDeltaAndNesting(t *testing.T) {
	tr := trace.New()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Trace: tr})

	outer := c.Span("outer")
	if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
		t.Fatal(err)
	}
	inner := c.Span("inner")
	if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
		t.Fatal(err)
	}
	innerDelta := inner.End()
	if innerDelta.Rounds != 1 {
		t.Fatalf("inner delta rounds = %d, want 1", innerDelta.Rounds)
	}
	leak := c.Span("leaked") // never explicitly ended
	_ = leak
	outerDelta := outer.End() // must close "leaked" too
	if outerDelta.Rounds != 2 {
		t.Fatalf("outer delta rounds = %d, want 2", outerDelta.Rounds)
	}
	if got := c.Phase(); got != "" {
		t.Fatalf("span path after outer End = %q, want \"\" (leaked span not closed)", got)
	}
	rounds := tr.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(rounds))
	}
	if rounds[0].Phase != "outer" || rounds[1].Phase != "outer/inner" {
		t.Fatalf("phases = %q, %q; want outer, outer/inner", rounds[0].Phase, rounds[1].Phase)
	}
	// Idempotent End returns the fixed delta.
	if again := outer.End(); again != outerDelta {
		t.Fatalf("second End returned %+v, want %+v", again, outerDelta)
	}
	// The phase partition sums to the totals.
	s := trace.Summarize(rounds)
	if s.Makespan != c.Stats().Makespan || s.Words != c.Stats().TotalWords {
		t.Fatalf("summary (%v, %d) != stats (%v, %d)",
			s.Makespan, s.Words, c.Stats().Makespan, c.Stats().TotalWords)
	}
}

// TestSpanStack pins the span-path semantics on the cluster: "/"-joined
// paths, closing by depth (the leak-cleanup contract of Span.End), stale
// Ends as no-ops. The path is tracked
// whenever a collector or a registry is attached — and only then, so the
// bare engine's Span stays a Stats snapshot.
func TestSpanStack(t *testing.T) {
	for name, cfg := range map[string]Config{
		"traced":  {N: 64, M: 256, Seed: 1, Trace: trace.New()},
		"metered": {N: 64, M: 256, Seed: 1, Metrics: metrics.New()},
	} {
		t.Run(name, func(t *testing.T) {
			c := newTest(t, cfg)
			if c.Phase() != "" {
				t.Fatalf("fresh cluster: phase %q", c.Phase())
			}
			a := c.Span("a")
			b := c.Span("b")
			cc := c.Span("c")
			if c.Phase() != "a/b/c" {
				t.Fatalf("phase %q, want a/b/c", c.Phase())
			}
			b.End() // closes the leaked c too
			if c.Phase() != "a" {
				t.Fatalf("after ending b: phase %q, want a", c.Phase())
			}
			cc.End() // deeper than the stack: no-op
			if c.Phase() != "a" {
				t.Fatalf("stale End changed the path to %q", c.Phase())
			}
			d := c.Span("d")
			if c.Phase() != "a/d" {
				t.Fatalf("phase %q, want a/d", c.Phase())
			}
			a.End()
			d.End()
			if c.Phase() != "" {
				t.Fatalf("after ending a: phase %q, want none", c.Phase())
			}
		})
	}
	bare := newTest(t, Config{N: 64, M: 256, Seed: 1})
	sp := bare.Span("a")
	if bare.Phase() != "" {
		t.Fatalf("bare cluster tracks the span path: %q", bare.Phase())
	}
	if _, _, err := bare.Exchange(ringRound(bare, 2), nil); err != nil {
		t.Fatal(err)
	}
	if d := sp.End(); d.Rounds != 1 {
		t.Fatalf("bare span delta rounds = %d, want 1", d.Rounds)
	}
}

// TestEmptyRoundAdvancesClockAndTraces: an all-empty Exchange still advances
// the round clock, charges the barrier latency, and — under tracing —
// produces a record with no argmax, so trace conservation holds on silent
// rounds too.
func TestEmptyRoundAdvancesClockAndTraces(t *testing.T) {
	tr := trace.New()
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Trace: tr})
	for _, outs := range [][][]Msg{nil, make([][]Msg, c.K())} {
		before := c.Stats()
		if _, _, err := c.Exchange(outs, nil); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Rounds != before.Rounds+1 {
			t.Fatalf("empty round did not advance the clock: %d -> %d", before.Rounds, st.Rounds)
		}
		if st.Makespan != before.Makespan+1 {
			t.Fatalf("empty round makespan %v, want %v (barrier latency)", st.Makespan, before.Makespan+1)
		}
	}
	rounds := tr.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(rounds))
	}
	for i, r := range rounds {
		if r.Kind != trace.KindExchange || r.Words != 0 || r.Argmax != trace.None {
			t.Fatalf("empty-round record %d = %+v; want exchange kind, 0 words, no argmax", i, r)
		}
		if r.Makespan != 1 || r.Round != i+1 {
			t.Fatalf("empty-round record %d: makespan %v round %d, want 1 and %d", i, r.Makespan, r.Round, i+1)
		}
	}
}

// TestTracingIsObservational: the same workload with and without a
// collector produces bit-identical Stats — tracing never perturbs.
func TestTracingIsObservational(t *testing.T) {
	run := func(tr *trace.Collector) Stats {
		cfg := Config{N: 64, M: 256, Seed: 1, Trace: tr}
		cfg.Profile = StragglerProfile(cfg.DeriveK(), 2, 8)
		c := newTest(t, cfg)
		for i := 0; i < 4; i++ {
			if _, _, err := c.Exchange(ringRound(c, 3), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	if untraced, traced := run(nil), run(trace.New()); untraced != traced {
		t.Fatalf("tracing changed the stats:\nuntraced: %+v\n  traced: %+v", untraced, traced)
	}
}

// TestSpeculationBusyTimeAndTrace pins the partner-charging contract of
// speculate:R that was previously untested: the partner's BusyTime carries
// the mirrored shard, BusyImbalance reflects the leveled round, and the
// trace record exposes the same charges (busy vector, argmax, spec words).
func TestSpeculationBusyTimeAndTrace(t *testing.T) {
	const B = 5
	tr := trace.New()
	cfg := Config{N: 64, M: 256, Seed: 1, Placement: sched.Speculate{R: 1}, Trace: tr}
	k := cfg.DeriveK()
	cfg.Profile = StragglerProfile(k, 1, 8) // machine k-1 at cost 9/word
	c := newTest(t, cfg)
	if _, _, err := c.Exchange(ringRound(c, B), nil); err != nil {
		t.Fatal(err)
	}

	// Machine 0 mirrors the straggler's 2B-word shard after its own: both
	// pair members finish at 2B·2 + 2B·2 = 8B; everyone else at 2B·2.
	want := float64(8 * B)
	if got := c.BusyTime(0); got != want {
		t.Fatalf("partner busy %v, want %v", got, want)
	}
	if got := c.BusyTime(k - 1); got != want {
		t.Fatalf("victim busy %v, want %v", got, want)
	}
	for i := 1; i < k-1; i++ {
		if got := c.BusyTime(i); got != float64(4*B) {
			t.Fatalf("bystander %d busy %v, want %v", i, got, float64(4*B))
		}
	}
	// max/mean over k machines: max = 8B, mean = (2·8B + (k-2)·4B)/k.
	mean := (2*float64(8*B) + float64(k-2)*float64(4*B)) / float64(k)
	if got := c.BusyImbalance(); got != want/mean {
		t.Fatalf("imbalance %v, want %v", got, want/mean)
	}
	if got := c.Stats().SpeculationWords; got != int64(2*B) {
		t.Fatalf("speculation words %d, want %d", got, 2*B)
	}

	// The trace record carries the same story.
	if tr.Len() != 1 {
		t.Fatalf("recorded %d rounds, want 1", tr.Len())
	}
	rec := tr.Rounds()[0]
	if rec.SpecWords != int64(2*B) {
		t.Fatalf("record spec words %d, want %d", rec.SpecWords, 2*B)
	}
	if rec.MaxTime != want {
		t.Fatalf("record max time %v, want %v", rec.MaxTime, want)
	}
	// First maximum wins ties: machine 0 (the partner) precedes the victim.
	if rec.Argmax != 0 {
		t.Fatalf("record argmax %d, want 0 (the charged partner)", rec.Argmax)
	}
	if rec.Busy[1+0] != want || rec.Busy[1+(k-1)] != want {
		t.Fatalf("record busy pair (%v, %v), want both %v", rec.Busy[1+0], rec.Busy[1+(k-1)], want)
	}
}

// TestTraceRecordsFaultEvents: checkpoint barriers and crash recoveries
// appear in the timeline as their own records, and the ordered sum of all
// record contributions stays bit-identical to the makespan even with the
// fault engine active.
func TestTraceRecordsFaultEvents(t *testing.T) {
	tr := trace.New()
	plan := &fault.Plan{
		Interval: 2,
		Crashes:  []fault.Crash{{Round: 3, Machine: 1, RestartAfter: 2}},
	}
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Faults: plan, Trace: tr})
	state := make([][]int, c.K())
	for i := range state {
		state[i] = []int{i, i}
	}
	c.HoldState(heldLen(state))
	for r := 0; r < 5; r++ {
		if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Crashes != 1 || st.Checkpoints == 0 {
		t.Fatalf("plan did not exercise the engine: %+v", st)
	}
	ckpts, recoveries := 0, 0
	sum := 0.0
	var words int64
	for _, r := range tr.Rounds() {
		sum += r.Makespan
		words += r.Words
		switch r.Kind {
		case trace.KindCheckpoint:
			ckpts += r.Checkpoints
		case trace.KindRecovery:
			recoveries++
			if r.Victim != 1 {
				t.Fatalf("recovery record victim %d, want 1", r.Victim)
			}
		}
	}
	if ckpts != st.Checkpoints || recoveries != st.Crashes {
		t.Fatalf("trace saw %d checkpoints / %d recoveries, stats say %d / %d",
			ckpts, recoveries, st.Checkpoints, st.Crashes)
	}
	if sum != st.Makespan {
		t.Fatalf("trace makespan sum %v != stats %v (conservation with faults)", sum, st.Makespan)
	}
	if words != st.TotalWords {
		t.Fatalf("trace words %d != stats %d", words, st.TotalWords)
	}
}
