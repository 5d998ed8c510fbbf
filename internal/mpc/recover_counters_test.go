package mpc_test

import (
	"reflect"
	"testing"

	"hetmpc/internal/core"
	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/metrics"
	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
)

// forgetSink drops c's kept fault counter handles at every ledger record —
// every round, checkpoint barrier and recovery — when c is set.
type forgetSink struct{ c *mpc.Cluster }

func (s *forgetSink) Record(trace.Round) {
	if s.c != nil {
		s.c.ForgetFaultCounters()
	}
}

// TestFaultCounterHandlesAreObservational pins that keeping a machine's
// fault counter handles on the fault engine changes nothing the registry
// shows: a faulted, metered MST run whose handles are dropped at every round
// barrier — so its registrations keep resolving them by name, as every
// registration used to — snapshots to the same series, in the same order,
// with the same values as the run that keeps them.
func TestFaultCounterHandlesAreObservational(t *testing.T) {
	g := graph.ConnectedGNM(256, 2048, 7, true)
	plan := &fault.Plan{
		Interval:  3,
		CrashRate: 0.003,
		Crashes:   []fault.Crash{{Round: 10, Machine: 2, RestartAfter: 1}},
	}
	run := func(forget bool) []metrics.Sample {
		t.Helper()
		reg, sink := metrics.New(), &forgetSink{}
		tr := trace.New()
		tr.SetSink(sink, false)
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 7, Faults: plan, Metrics: reg, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if forget {
			sink.c = c
		}
		if _, err := core.MST(c, g); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Checkpoints == 0 || st.Crashes == 0 {
			t.Fatalf("fault plan exercised no recovery: %+v", st)
		}
		return reg.Snapshot()
	}
	kept, resolved := run(false), run(true)
	if !reflect.DeepEqual(kept, resolved) {
		t.Fatalf("keeping the fault counter handles changed the registry:\nkept     %+v\nresolved %+v", kept, resolved)
	}
	counted := map[string]int64{}
	for _, s := range kept {
		counted[s.Name] += s.Value
	}
	for _, name := range []string{"fault_snapshots_total", "fault_snapshot_words_total", "fault_restores_total"} {
		if counted[name] == 0 {
			t.Errorf("%s counted nothing over a checkpointed, crashing run", name)
		}
	}
}
