package hetmpc_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"hetmpc"
)

// metricValue returns the unlabelled counter name of a snapshot.
func metricValue(t *testing.T, snap []hetmpc.MetricSample, name string) int64 {
	t.Helper()
	for _, s := range snap {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("snapshot lacks %s", name)
	return 0
}

// TestMetricsObservationalGoldenAcrossGOMAXPROCS pins the Config.Metrics
// analogue of the nil-collector trace guarantee at the facade level: a full
// MST run — straggler profile, checkpointed fault plan, seed-derived crashes
// — produces bit-identical ClusterStats with and without a metrics registry
// attached, at GOMAXPROCS 1, 4 and 8, and every run reproduces the golden
// MST weight. The attached registry must also satisfy the word-conservation
// law the engine promises: the run-wide word counter equals
// Stats.TotalWords exactly.
func TestMetricsObservationalGoldenAcrossGOMAXPROCS(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	plan := &hetmpc.FaultPlan{
		Interval:  4,
		CrashRate: 0.003,
		Crashes:   []hetmpc.FaultCrash{{Round: 10, Machine: 2, RestartAfter: 1}},
	}
	run := func(reg *hetmpc.Metrics) hetmpc.ClusterStats {
		t.Helper()
		cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, Faults: plan, Metrics: reg}
		cfg.Profile = hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
		c, err := hetmpc.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != 153235 {
			t.Fatalf("mst weight %d, want golden 153235", r.Weight)
		}
		return c.Stats()
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var golden hetmpc.ClusterStats
	for i, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		reg := hetmpc.NewMetrics()
		metered := run(reg)
		plain := run(nil)
		if metered != plain {
			t.Fatalf("GOMAXPROCS=%d: metrics perturbed the run:\nmetered %+v\nplain   %+v", procs, metered, plain)
		}
		if i == 0 {
			golden = metered
		} else if metered != golden {
			t.Fatalf("GOMAXPROCS=%d stats diverged from GOMAXPROCS=1:\n%+v\n%+v", procs, metered, golden)
		}
		// Conservation at the facade: the registry's run-wide word counter
		// is exactly Stats.TotalWords (fresh registry, single cluster).
		if got := metricValue(t, reg.Snapshot(), "mpc_words_total"); got != metered.TotalWords {
			t.Fatalf("GOMAXPROCS=%d: mpc_words_total = %d, Stats.TotalWords = %d", procs, got, metered.TotalWords)
		}
	}
	if golden.Crashes == 0 || golden.Checkpoints == 0 {
		t.Fatalf("fault plan exercised no recovery: %+v", golden)
	}
}

// metricsSnapshot runs MST on a fresh 16-machine straggler cluster under a
// checkpointed crash plan and adaptive:0.5 placement, and returns the
// registry's snapshot as the -metrics file would hold it.
func metricsSnapshot(t *testing.T, tr hetmpc.Transport) []byte {
	t.Helper()
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	plan := &hetmpc.FaultPlan{
		Interval:  4,
		CrashRate: 0.02,
		Crashes:   []hetmpc.FaultCrash{{Round: 10, Machine: 2, RestartAfter: 1}},
	}
	reg := hetmpc.NewMetrics()
	cfg := hetmpc.Config{N: 512, M: 4096, K: 16, Seed: 7, Faults: plan, Metrics: reg, Transport: tr}
	cfg.Profile = hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
	cfg.Placement = hetmpc.AdaptivePlacement{Alpha: 0.5}
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := hetmpc.MST(c, g); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Crashes == 0 || st.Checkpoints == 0 {
		t.Fatalf("fault plan exercised no recovery: %+v", st)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsSnapshotGolden pins the -metrics file byte for byte. The golden
// is the snapshot the live instrument registry wrote for this run, less the
// instruments the record fold does not carry (the per-link wire_* family,
// the estimator's sched_*, mpc_inbox_messages and the checkpointer's
// fault_snapshots/snapshot_words/restores), so it shows that folding the
// round records reproduces every instrument it kept.
func TestMetricsSnapshotGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_mst_faulted.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsSnapshot(t, nil); !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from testdata/metrics_mst_faulted.json:\n%s", got)
	}
}

// TestMetricsSnapshotDeterministicOnPipe: the snapshot holds model
// quantities only, so two runs over a real transport write the same bytes —
// the in-process run's.
func TestMetricsSnapshotDeterministicOnPipe(t *testing.T) {
	a := metricsSnapshot(t, hetmpc.NewPipeTransport())
	b := metricsSnapshot(t, hetmpc.NewPipeTransport())
	if !bytes.Equal(a, b) {
		t.Fatal("two identical pipe runs wrote different snapshots")
	}
	if !bytes.Equal(a, metricsSnapshot(t, nil)) {
		t.Fatal("the pipe run's snapshot differs from the in-process run's")
	}
}
