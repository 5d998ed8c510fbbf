package hetmpc_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

// misreportedConfig is the misreported profile of E34's K=8 sort blocks,
// shared by the adaptive goldens: an 8-machine cluster declared uniform
// whose last two machines actually run 4× slower for the whole run (a
// fault.Slowdown window the static policies cannot see but the adaptive
// estimator measures).
func misreportedConfig(pol hetmpc.PlacementPolicy, tr *hetmpc.Trace) hetmpc.Config {
	const k = 8
	cfg := hetmpc.Config{N: 512, M: 4096, K: k, Seed: 7, Placement: pol, Trace: tr}
	p := hetmpc.UniformProfile(k)
	p.LargeCost = 1.0 / 32
	cfg.Profile = p
	cfg.Faults = &hetmpc.FaultPlan{Slowdowns: []hetmpc.FaultSlowdown{
		{Machine: k - 2, From: 1, To: 1 << 20, Factor: 4},
		{Machine: k - 1, From: 1, To: 1 << 20, Factor: 4},
	}}
	return cfg
}

// TestAdaptiveGoldenThroughputEquivalence pins the two exact degenerations
// of adaptive placement (DESIGN.md §10) against the MST golden on a
// truthful straggler profile: a frozen estimator (alpha 0) and a default
// estimator fed truthful measurements must both reproduce static
// throughput's full Stats bit-identically — the EWMA's fixed point is the
// declared profile, so re-splitting every round changes nothing at all.
func TestAdaptiveGoldenThroughputEquivalence(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	run := func(pol hetmpc.PlacementPolicy) hetmpc.ClusterStats {
		cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, Placement: pol}
		p := hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
		p.LargeCost = 1.0 / 32
		cfg.Profile = p
		c, err := hetmpc.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != 153235 {
			t.Fatalf("%s: mst weight %d, want golden 153235", pol.Name(), r.Weight)
		}
		return c.Stats()
	}
	want := run(hetmpc.ThroughputPlacement{})
	for _, pol := range []hetmpc.PlacementPolicy{
		hetmpc.AdaptivePlacement{Alpha: 0},
		hetmpc.AdaptivePlacement{Alpha: 0.5},
	} {
		if got := run(pol); got != want {
			t.Fatalf("%s on a truthful profile not bit-identical to static throughput:\n got: %+v\nwant: %+v",
				pol.Name(), got, want)
		}
	}
}

// TestAdaptiveGoldenTraceConservationAcrossGOMAXPROCS pins the trace
// conservation contract under mid-run share rebalancing: on the
// misreported-profile scenario — where the adaptive estimator genuinely
// moves the shares round over round — the ordered sum of per-round
// makespan contributions must equal Stats.Makespan bit-identically and the
// per-round words must sum to Stats.TotalWords, at GOMAXPROCS 1, 4 and 8,
// with the full Stats bit-identical across all three.
func TestAdaptiveGoldenTraceConservationAcrossGOMAXPROCS(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	run := func() hetmpc.ClusterStats {
		tr := hetmpc.NewTrace()
		c, err := hetmpc.NewCluster(misreportedConfig(hetmpc.AdaptivePlacement{Alpha: 0.5}, tr))
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
		st := c.Stats()
		s := hetmpc.SummarizeTrace(tr.Rounds())
		if s.Makespan != st.Makespan {
			t.Fatalf("trace makespan %v != stats makespan %v (conservation broken under adaptive rebalancing)",
				s.Makespan, st.Makespan)
		}
		if s.Words != st.TotalWords {
			t.Fatalf("trace words %d != stats words %d", s.Words, st.TotalWords)
		}
		if est := c.PlacementEstimator(); est == nil || est.Rounds() == 0 {
			t.Fatal("the estimator observed nothing — the scenario is not exercising adaptation")
		}
		return st
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want hetmpc.ClusterStats
	for i, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("stats diverge at GOMAXPROCS=%d:\n got: %+v\nwant: %+v", procs, got, want)
		}
	}
}

// TestTraceArgmaxBusyRegression pins the argmax attribution under the two
// policies that reshape per-round charging — speculation's partner pairing
// and adaptive's share shifts: no exchange record may name a bottleneck
// machine that was charged zero busy time, and a record with no bottleneck
// (Argmax == None) must have moved no words.
func TestTraceArgmaxBusyRegression(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	for _, tc := range []struct {
		name string
		cfg  func(tr *hetmpc.Trace) hetmpc.Config
	}{
		{"speculate-straggler", func(tr *hetmpc.Trace) hetmpc.Config {
			cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, Placement: hetmpc.SpeculatePlacement{R: 2}, Trace: tr}
			p := hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
			p.LargeCost = 1.0 / 32
			cfg.Profile = p
			return cfg
		}},
		{"adaptive-misreported", func(tr *hetmpc.Trace) hetmpc.Config {
			return misreportedConfig(hetmpc.AdaptivePlacement{Alpha: 0.5}, tr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := hetmpc.NewTrace()
			c, err := hetmpc.NewCluster(tc.cfg(tr))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := hetmpc.MST(c, g); err != nil {
				t.Fatal(err)
			}
			for _, r := range tr.Rounds() {
				if r.Kind != hetmpc.TraceKindExchange {
					continue
				}
				if r.Argmax == hetmpc.TraceNone {
					if r.Words != 0 {
						t.Fatalf("round %d moved %d words but attributes no bottleneck machine", r.Round, r.Words)
					}
					continue
				}
				slot := r.Argmax + 1 // trace ids: Large = -1 → slot 0, small i → slot 1+i
				if slot < 0 || slot >= len(r.Busy) {
					t.Fatalf("round %d: argmax %d outside the busy vector (len %d)", r.Round, r.Argmax, len(r.Busy))
				}
				if !(r.Busy[slot] > 0) {
					t.Fatalf("round %d: argmax machine %s has zero busy time (busy: %v)",
						r.Round, hetmpc.TraceMachineName(r.Argmax), r.Busy)
				}
			}
		})
	}
}

// TestAdaptiveExperimentsDeterministicAcrossGOMAXPROCS pins the
// GOMAXPROCS-determinism golden for the placement grid E34: it must render
// a byte-identical table on one CPU and on all of them (placement shares,
// speculation pairing and recovery pricing run serially by design, and the
// adaptive estimator observes and the shares switch at the same serial
// program point of every run). The sweeps folded into E34 keep a subtest
// each over their rows, so a divergence names the sweep it is in.
func TestAdaptiveExperimentsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep skipped in -short mode")
	}
	run := func() *exp.Table {
		art, _, err := exp.Env{}.Run("e34", 7)
		if err != nil {
			t.Fatal(err)
		}
		return art.Table
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(prev)
	many := run()
	t.Run("e34", func(t *testing.T) {
		var a, b bytes.Buffer
		one.Render(&a)
		many.Render(&b)
		if a.String() != b.String() {
			t.Fatalf("e34 diverges across GOMAXPROCS:\n--- 1 ---\n%s\n--- n ---\n%s", a.String(), b.String())
		}
	})
	// Each folded sweep's rows, by workload and fault plan.
	for _, sw := range []struct {
		id    string
		holds func(workload, plan string) bool
	}{
		{"e24", func(w, p string) bool { return w == "mst" && p == "none" }},
		{"e29", func(w, p string) bool { return w == "sort" }},
		{"e30", func(w, p string) bool { return w == "sort K=8" }},
		{"e31", func(w, p string) bool { return w == "mst" && p != "none" }},
	} {
		sw := sw
		t.Run(sw.id, func(t *testing.T) {
			rows := func(tab *exp.Table) [][]string {
				var out [][]string
				for _, r := range tab.Rows {
					if sw.holds(r[0], r[2]) {
						out = append(out, r)
					}
				}
				return out
			}
			a, b := rows(one), rows(many)
			if len(a) != 12 {
				t.Fatalf("e34 holds %d of %s's rows, want 12", len(a), sw.id)
			}
			if !slices.EqualFunc(a, b, slices.Equal) {
				t.Fatalf("%s's rows diverge across GOMAXPROCS:\n--- 1 ---\n%v\n--- n ---\n%v", sw.id, a, b)
			}
		})
	}
}
