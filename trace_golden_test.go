package hetmpc_test

import (
	"errors"
	"testing"

	"hetmpc"
)

// TestTraceConservationGolden pins the acceptance criteria of the trace
// refactor: with tracing enabled, the ordered sum of the per-round makespan
// contributions is bit-identical to Stats.Makespan and the per-round words
// sum to TotalWords — on uniform, zipf (capacity-skew), straggler and
// fault-active clusters — and with Config.Trace nil the Stats are
// bit-identical to the traced run (tracing observes, never perturbs), which
// also keeps them bit-identical to the pre-refactor goldens that
// TestUniformProfileGoldens pins.
func TestTraceConservationGolden(t *testing.T) {
	gW := hetmpc.ConnectedGNM(256, 2048, 7, true)
	gU := hetmpc.GNM(256, 2048, 7)

	flavors := []struct {
		name string
		cfg  func() hetmpc.Config
	}{
		{"uniform", func() hetmpc.Config {
			return hetmpc.Config{N: 256, M: 2048, Seed: 7}
		}},
		{"zipf", func() hetmpc.Config {
			cfg := hetmpc.Config{N: 256, M: 2048, Seed: 7}
			cfg.Profile = hetmpc.ZipfProfile(cfg.DeriveK(), 0.8, 0.05)
			return cfg
		}},
		{"straggler", func() hetmpc.Config {
			cfg := hetmpc.Config{N: 256, M: 2048, Seed: 7}
			cfg.Profile = hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
			return cfg
		}},
		{"faults", func() hetmpc.Config {
			cfg := hetmpc.Config{N: 256, M: 2048, Seed: 7}
			cfg.Faults = &hetmpc.FaultPlan{Interval: 4, CrashRate: 0.003}
			return cfg
		}},
	}
	algs := []struct {
		name string
		run  func(c *hetmpc.Cluster) error
	}{
		{"mst", func(c *hetmpc.Cluster) error {
			r, err := hetmpc.MST(c, gW)
			if err != nil {
				return err
			}
			return hetmpc.CheckMST(gW, r.Edges)
		}},
		{"matching", func(c *hetmpc.Cluster) error {
			r, err := hetmpc.MaximalMatching(c, gU)
			if err != nil {
				return err
			}
			return hetmpc.CheckMatching(gU, r.Edges, true)
		}},
	}

	for _, alg := range algs {
		for _, fl := range flavors {
			t.Run(alg.name+"/"+fl.name, func(t *testing.T) {
				// Traced run.
				cfg := fl.cfg()
				tr := hetmpc.NewTrace()
				cfg.Trace = tr
				c, err := hetmpc.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := alg.run(c); err != nil {
					t.Fatal(err)
				}
				st := c.Stats()

				// Conservation: ordered per-record sums reproduce the
				// aggregate Stats bit-for-bit.
				makespan := 0.0
				var words int64
				exchanges := 0
				for _, r := range tr.Rounds() {
					makespan += r.Makespan
					words += r.Words
					if r.Kind == "exchange" {
						exchanges++
					}
				}
				if makespan != st.Makespan {
					t.Fatalf("Σ trace makespan %v != Stats.Makespan %v (bit-identity required)", makespan, st.Makespan)
				}
				if words != st.TotalWords {
					t.Fatalf("Σ trace words %d != Stats.TotalWords %d", words, st.TotalWords)
				}
				if exchanges != st.Rounds {
					t.Fatalf("trace exchange records %d != Stats.Rounds %d", exchanges, st.Rounds)
				}
				if fl.name == "faults" && (st.Crashes == 0 || st.Checkpoints == 0) {
					t.Fatalf("fault flavor exercised no faults: %+v", st)
				}

				// The phase summary partitions the same totals and is
				// non-empty for every ported entry point.
				s := hetmpc.SummarizeTrace(tr.Rounds())
				if len(s.Phases) == 0 {
					t.Fatal("empty phase breakdown")
				}
				if s.Makespan != st.Makespan || s.Words != st.TotalWords {
					t.Fatalf("summary totals (%v, %d) != stats (%v, %d)", s.Makespan, s.Words, st.Makespan, st.TotalWords)
				}

				// Untraced twin: bit-identical Stats (the nil-trace path is
				// exactly the pre-refactor simulator).
				cfg2 := fl.cfg()
				c2, err := hetmpc.NewCluster(cfg2)
				if err != nil {
					t.Fatal(err)
				}
				if err := alg.run(c2); err != nil {
					t.Fatal(err)
				}
				if c2.Stats() != st {
					t.Fatalf("untraced stats diverged from traced:\nuntraced: %+v\n  traced: %+v", c2.Stats(), st)
				}
			})
		}
	}
}

// TestPhaseBreakdownAllEntryPoints drives every heterogeneous algorithm and
// every sublinear baseline through a traced cluster and requires a
// non-empty, conserving phase breakdown from each — the contract that the
// per-algorithm span port is complete.
func TestPhaseBreakdownAllEntryPoints(t *testing.T) {
	gW := hetmpc.ConnectedGNM(128, 1024, 7, true)
	gU := hetmpc.ConnectedGNM(128, 1024, 7, false)
	gC := hetmpc.Cycles(128, 2, 7)

	cases := []struct {
		name    string
		noLarge bool
		g       *hetmpc.Graph
		run     func(c *hetmpc.Cluster, g *hetmpc.Graph) error
	}{
		{"mst", false, gW, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.MST(c, g)
			return err
		}},
		{"spanner", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.Spanner(c, g, 3)
			return err
		}},
		{"spanner-weighted", false, gW, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.SpannerWeighted(c, g, 3)
			return err
		}},
		{"apsp", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BuildAPSPOracle(c, g)
			return err
		}},
		{"matching", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.MaximalMatching(c, g)
			return err
		}},
		{"connectivity", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.Connectivity(c, g)
			return err
		}},
		{"approx-mst", false, gW, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.ApproxMSTWeight(c, g, 0.5)
			return err
		}},
		{"mincut", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.MinCutUnweighted(c, g)
			return err
		}},
		{"approx-mincut", false, gW, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.ApproxMinCut(c, g, 0.5)
			return err
		}},
		{"mis", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.MIS(c, g)
			return err
		}},
		{"coloring", false, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.Coloring(c, g)
			return err
		}},
		{"2v1", false, gC, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.TwoVsOneCycle(c, g)
			return err
		}},
		{"baseline-mst", true, gW, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BaselineMST(c, g)
			return err
		}},
		{"baseline-cc", true, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BaselineConnectivity(c, g)
			return err
		}},
		{"baseline-mis", true, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BaselineMIS(c, g)
			return err
		}},
		{"baseline-coloring", true, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BaselineColoring(c, g)
			return err
		}},
		{"baseline-matching", true, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, _, err := hetmpc.BaselineMatching(c, g)
			return err
		}},
		{"baseline-spanner", true, gU, func(c *hetmpc.Cluster, g *hetmpc.Graph) error {
			_, err := hetmpc.BaselineSpanner(c, g, 3)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := hetmpc.NewTrace()
			cfg := hetmpc.Config{N: tc.g.N, M: tc.g.M(), Seed: 7, NoLarge: tc.noLarge, Trace: tr}
			c, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(c, tc.g); err != nil {
				t.Fatal(err)
			}
			s := hetmpc.SummarizeTrace(tr.Rounds())
			if len(s.Phases) == 0 {
				t.Fatal("no phase breakdown recorded")
			}
			for _, p := range s.Phases {
				if p.Phase == "" {
					t.Fatalf("untagged rounds leaked past the algorithm span: %+v", p)
				}
			}
			if st := c.Stats(); s.Makespan != st.Makespan || s.Words != st.TotalWords || s.Rounds != st.Rounds {
				t.Fatalf("summary (%v, %d, %d) != stats (%v, %d, %d)",
					s.Makespan, s.Words, s.Rounds, st.Makespan, st.TotalWords, st.Rounds)
			}
			// The span path must be fully unwound after the entry point
			// returns, or later algorithms on this cluster inherit a stale
			// phase prefix.
			if got := c.Phase(); got != "" {
				t.Fatalf("span path %q still open after %s returned", got, tc.name)
			}
		})
	}
}

// TestErrNeedsLarge is the regression test for the unified requires-large
// failure: every large-requiring algorithm on a NoLarge cluster fails with
// an error that errors.Is-matches hetmpc.ErrNeedsLarge and still names the
// algorithm.
func TestErrNeedsLarge(t *testing.T) {
	gU := hetmpc.ConnectedGNM(128, 1024, 7, false)
	gW := hetmpc.ConnectedGNM(128, 1024, 7, true)
	gC := hetmpc.Cycles(128, 2, 7)
	c, err := hetmpc.NewCluster(hetmpc.Config{N: 128, M: 1024, Seed: 7, NoLarge: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"MST", func() error { _, err := hetmpc.MST(c, gW); return err }},
		{"Spanner", func() error { _, err := hetmpc.Spanner(c, gU, 3); return err }},
		{"SpannerWeighted", func() error { _, err := hetmpc.SpannerWeighted(c, gW, 3); return err }},
		{"BuildAPSPOracle", func() error { _, err := hetmpc.BuildAPSPOracle(c, gU); return err }},
		{"MaximalMatching", func() error { _, err := hetmpc.MaximalMatching(c, gU); return err }},
		{"MatchingFiltering", func() error { _, err := hetmpc.MatchingFiltering(c, gU); return err }},
		{"Connectivity", func() error { _, err := hetmpc.Connectivity(c, gU); return err }},
		{"ApproxMSTWeight", func() error { _, err := hetmpc.ApproxMSTWeight(c, gW, 0.5); return err }},
		{"MinCutUnweighted", func() error { _, err := hetmpc.MinCutUnweighted(c, gU); return err }},
		{"ApproxMinCut", func() error { _, err := hetmpc.ApproxMinCut(c, gW, 0.5); return err }},
		{"MIS", func() error { _, err := hetmpc.MIS(c, gU); return err }},
		{"Coloring", func() error { _, err := hetmpc.Coloring(c, gU); return err }},
		{"TwoVsOneCycle", func() error { _, err := hetmpc.TwoVsOneCycle(c, gC); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatalf("%s ran without the large machine", tc.name)
			}
			if !errors.Is(err, hetmpc.ErrNeedsLarge) {
				t.Fatalf("%s error %q does not match ErrNeedsLarge", tc.name, err)
			}
			if !containsName(err.Error(), tc.name) {
				t.Fatalf("%s error %q does not name the algorithm", tc.name, err)
			}
			// The refused call must not have touched the cluster.
			if st := c.Stats(); st.Rounds != 0 {
				t.Fatalf("%s consumed %d rounds before refusing", tc.name, st.Rounds)
			}
		})
	}
}

func containsName(s, name string) bool {
	for i := 0; i+len(name) <= len(s); i++ {
		if s[i:i+len(name)] == name {
			return true
		}
	}
	return false
}
