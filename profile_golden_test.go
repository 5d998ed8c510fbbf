package hetmpc_test

import (
	"runtime"
	"testing"

	"hetmpc"
)

// comm is the communication-side of ClusterStats (everything except the
// profile-dependent makespan), for comparing runs against the pre-profile
// goldens.
type comm struct {
	Rounds                 int
	Messages, TotalWords   int64
	MaxSendWords, MaxRecvW int
}

func commOf(s hetmpc.ClusterStats) comm {
	return comm{s.Rounds, s.Messages, s.TotalWords, s.MaxSendWords, s.MaxRecvWords}
}

// TestUniformProfileGoldens pins the uniform regime to the exact Stats the
// simulator produced before the cost-model refactor (captured at that
// commit with seed 7): per-machine caps, weighted placement and weighted
// splitter selection must all reduce bit-identically on uniform profiles.
// The table runs each workload three ways — no profile, explicit uniform
// profile, and a straggler (speed-only) profile — all three must reproduce
// the golden communication stats; the straggler run must additionally show
// a strictly larger makespan at the identical round structure. The four
// literals were re-captured once since, when AggregateByKey's boundary-
// report, instruction and tree-combine rounds (which never sent) were
// deleted: per call −3 rounds, −182 messages, −546 words, max-send and
// max-recv untouched. Three of them (connectivity makes no dissemination)
// were re-captured again when SegmentedBroadcast began reading its spans off
// Sort's splitters: per call −2 rounds and fewer messages and words, max-send
// and max-recv untouched; and once more for Sort's cut replies (DESIGN.md §1).
// Matching's was re-captured once more when it began aggregating degrees and
// disseminating over one plan of its endpoints: one Sort of the requests in
// place of three (−4 rounds), max-recv untouched. Connectivity's was
// re-captured once more when its sketch phase began sorting 2-word edge
// incidences instead of aggregating partial sketches: the same 5 rounds,
// −93 % words, max-recv (the gather at the large machine) untouched.
func TestUniformProfileGoldens(t *testing.T) {
	gW := hetmpc.ConnectedGNM(512, 4096, 7, true)
	gU := hetmpc.GNM(512, 4096, 7)

	cases := []struct {
		name    string
		noLarge bool
		run     func(c *hetmpc.Cluster) error
		want    comm
	}{
		{"mst", false, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.MST(c, gW)
			if err == nil && r.Weight != 153235 {
				t.Errorf("mst weight %d, want 153235", r.Weight)
			}
			return err
		}, comm{44, 38093, 290964, 16582, 25337}},
		{"connectivity", false, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.Connectivity(c, gU)
			if err == nil && r.Components != 1 {
				t.Errorf("components %d, want 1", r.Components)
			}
			return err
		}, comm{5, 8064, 581490, 14854, 525312}},
		{"matching", false, func(c *hetmpc.Cluster) error {
			_, err := hetmpc.MaximalMatching(c, gU)
			return err
		}, comm{61, 88098, 550615, 16398, 25391}},
		{"baseline-mst", true, func(c *hetmpc.Cluster) error {
			r, err := hetmpc.BaselineMST(c, gW)
			if err == nil && r.Weight != 153235 {
				t.Errorf("baseline mst weight %d, want 153235", r.Weight)
			}
			return err
		}, comm{183, 157527, 1236939, 15912, 24212}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, NoLarge: tc.noLarge}
			k := cfg.DeriveK()
			profiles := map[string]*hetmpc.Profile{
				"nil":       nil,
				"uniform":   hetmpc.UniformProfile(k),
				"straggler": hetmpc.StragglerProfile(k, 4, 16),
			}
			makespans := map[string]float64{}
			for pname, p := range profiles {
				cfg.Profile = p
				c, err := hetmpc.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.run(c); err != nil {
					t.Fatalf("profile %s: %v", pname, err)
				}
				if got := commOf(c.Stats()); got != tc.want {
					t.Fatalf("profile %s: stats %+v, want golden %+v", pname, got, tc.want)
				}
				makespans[pname] = c.Stats().Makespan
			}
			if makespans["nil"] != makespans["uniform"] {
				t.Fatalf("uniform makespan %v differs from nil %v", makespans["uniform"], makespans["nil"])
			}
			if makespans["straggler"] <= makespans["uniform"] {
				t.Fatalf("straggler makespan %v not above uniform %v at equal rounds",
					makespans["straggler"], makespans["uniform"])
			}

			// Fault axis of the same goldens: a fault-free (zero) plan is
			// bit-identical to no plan at all — full Stats, not just the
			// communication side — and an active plan keeps the golden
			// communication stats while charging its overhead on top.
			cfg.Profile = nil
			cfg.Faults = &hetmpc.FaultPlan{}
			cZero, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cZero); err != nil {
				t.Fatalf("zero fault plan: %v", err)
			}
			cfg.Faults = nil
			cNil, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cNil); err != nil {
				t.Fatal(err)
			}
			if cZero.Stats() != cNil.Stats() {
				t.Fatalf("zero fault plan not bit-identical to nil:\n zero: %+v\n  nil: %+v",
					cZero.Stats(), cNil.Stats())
			}
			// Interval 4: the shortest golden, connectivity, is 5 rounds.
			cfg.Faults = &hetmpc.FaultPlan{Interval: 4, CrashRate: 0.002}
			cFault, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cFault); err != nil {
				t.Fatalf("active fault plan: %v", err)
			}
			st := cFault.Stats()
			if got := commOf(st); got != tc.want {
				t.Fatalf("active fault plan changed the golden communication stats: %+v vs %+v", got, tc.want)
			}
			if st.Checkpoints == 0 || st.ReplicationWords == 0 {
				t.Fatalf("active plan replicated nothing: %+v", st)
			}
			if st.Makespan <= makespans["nil"] {
				t.Fatalf("fault overhead missing: makespan %v <= fault-free %v", st.Makespan, makespans["nil"])
			}
		})
	}
}

// TestRecoveryDeterministicAcrossGOMAXPROCS pins the acceptance criterion
// that recovery is deterministic under any GOMAXPROCS: a full MST run with
// checkpoints, seed-derived crashes and a transient slowdown produces
// bit-identical Stats on one CPU and on all of them.
func TestRecoveryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	plan := &hetmpc.FaultPlan{
		Interval:  4,
		CrashRate: 0.003,
		Crashes:   []hetmpc.FaultCrash{{Round: 10, Machine: 2, RestartAfter: 1}},
		Slowdowns: []hetmpc.FaultSlowdown{{Machine: 5, From: 3, To: 30, Factor: 8}},
	}
	run := func() hetmpc.ClusterStats {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: 7, Faults: plan})
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
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(prev)
	many := run()
	if one != many {
		t.Fatalf("recovery stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one, many)
	}
	if one.Crashes == 0 {
		t.Fatalf("plan injected no crashes: %+v", one)
	}
}

// TestMakespanMonotoneInSlowdown is the property test: Stats.Makespan is
// monotone nondecreasing in any single machine's slowdown factor, on both
// slowdown axes the simulator has — a transient fault window and a
// persistent profile speed.
func TestMakespanMonotoneInSlowdown(t *testing.T) {
	g := hetmpc.GNM(256, 2048, 11)
	cfg := hetmpc.Config{N: 256, M: 2048, Seed: 11}
	k := cfg.DeriveK()
	factors := []float64{1, 4, 32, 256, 4096}

	connectivity := func(c *hetmpc.Cluster) {
		t.Helper()
		r, err := hetmpc.Connectivity(c, g)
		if err != nil {
			t.Fatal(err)
		}
		_, want := hetmpc.Components(g)
		if r.Components != want {
			t.Fatalf("components %d, want %d", r.Components, want)
		}
	}
	for _, machine := range []int{0, k / 2, k - 1} {
		prevWindow, prevSpeed := 0.0, 0.0
		for _, f := range factors {
			// Axis 1: transient fault-plan window covering the whole run.
			c := cfg
			if f > 1 {
				c.Faults = &hetmpc.FaultPlan{Slowdowns: []hetmpc.FaultSlowdown{
					{Machine: machine, From: 1, To: 1 << 20, Factor: f},
				}}
			}
			cw, err := hetmpc.NewCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			connectivity(cw)
			if ms := cw.Stats().Makespan; ms < prevWindow {
				t.Fatalf("machine %d: window makespan fell from %v to %v at factor %g",
					machine, prevWindow, ms, f)
			} else {
				prevWindow = ms
			}

			// Axis 2: persistent profile speed 1/f on the same machine.
			c = cfg
			p := hetmpc.UniformProfile(k)
			p.Speed[machine] = 1 / f
			c.Profile = p
			cs, err := hetmpc.NewCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			connectivity(cs)
			if ms := cs.Stats().Makespan; ms < prevSpeed {
				t.Fatalf("machine %d: speed makespan fell from %v to %v at factor %g",
					machine, prevSpeed, ms, f)
			} else {
				prevSpeed = ms
			}
		}
	}
}
