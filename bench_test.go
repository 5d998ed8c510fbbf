package hetmpc_test

// One benchmark per evaluation artifact (DESIGN.md §2, EXPERIMENTS.md):
// BenchmarkE1_Table1 regenerates the paper's Table 1; E2..E16 are the
// figure-style sweeps; E17..E19 sweep heterogeneous machine profiles and
// report the simulated makespan (DESIGN.md §6); E20..E22 sweep the
// fault-injection and recovery subsystem (DESIGN.md §7); E23..E25 sweep
// the placement-policy subsystem (DESIGN.md §8); E26..E28 sweep the trace
// subsystem's phase timelines and critical-path attribution (DESIGN.md
// §9); E29..E31 sweep adaptive placement — online speed re-estimation
// with round-boundary re-splitting (DESIGN.md §10); E32 sweeps the
// Exchange transports — the deliver phase over a real wire at asserted
// bit-identical model numbers (DESIGN.md §11). Each benchmark
// runs its experiment through the heterogeneous-MPC simulator, validates
// every output against the exact references, and reports measured model
// metrics via b.ReportMetric.
//
// Run everything once:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Individual experiments also report headline metrics (rounds, phases,
// sizes) so that `go test -bench=E2` gives the Table/figure numbers without
// the CLI.

import (
	"math"
	"os"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

// benchDir is where experiment benchmarks drop their BENCH_<exp>.json
// artifacts (override with the BENCH_DIR environment variable; "-" disables
// artifact writing). The artifacts record the perf trajectory across PRs:
// model metrics (rounds, words) plus wall-clock ns and allocations.
func benchDir() string {
	if d := os.Getenv("BENCH_DIR"); d != "" {
		return d
	}
	return "bench"
}

// runExp executes one experiment table per benchmark iteration, reports the
// model metrics, and writes the BENCH_<exp>.json artifact of the last
// iteration.
func runExp(b *testing.B, id string) {
	b.Helper()
	var art *exp.Artifact
	for i := 0; i < b.N; i++ {
		a, _, err := exp.Env{}.Run(id, 7)
		if err != nil {
			b.Fatal(err)
		}
		art = a
	}
	b.ReportMetric(float64(art.Model.Rounds), "rounds")
	b.ReportMetric(float64(art.Model.TotalWords), "words")
	b.ReportMetric(art.Model.Makespan, "makespan")
	if dir := benchDir(); dir != "-" {
		if _, err := art.WriteFile(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Table1(b *testing.B)                { runExp(b, "table1") }
func BenchmarkE2_MSTRoundsVsDensity(b *testing.B)    { runExp(b, "e2") }
func BenchmarkE3_MSTSuperlinear(b *testing.B)        { runExp(b, "e3") }
func BenchmarkE4_KKTFLight(b *testing.B)             { runExp(b, "e4") }
func BenchmarkE5_SpannerSizeStretch(b *testing.B)    { runExp(b, "e5") }
func BenchmarkE6_ModifiedBaswanaSen(b *testing.B)    { runExp(b, "e6") }
func BenchmarkE7_MatchingDegreeVsDelta(b *testing.B) { runExp(b, "e7") }
func BenchmarkE8_MatchingFiltering(b *testing.B)     { runExp(b, "e8") }
func BenchmarkE9_Connectivity(b *testing.B)          { runExp(b, "e9") }
func BenchmarkE10_ApproxMST(b *testing.B)            { runExp(b, "e10") }
func BenchmarkE11_MinCut(b *testing.B)               { runExp(b, "e11") }
func BenchmarkE12_MIS(b *testing.B)                  { runExp(b, "e12") }
func BenchmarkE13_Coloring(b *testing.B)             { runExp(b, "e13") }
func BenchmarkE14_TwoVsOneCycle(b *testing.B)        { runExp(b, "e14") }
func BenchmarkE15_APSP(b *testing.B)                 { runExp(b, "e15") }
func BenchmarkE16_MSTAblation(b *testing.B)          { runExp(b, "e16") }
func BenchmarkE17_SkewPlacement(b *testing.B)        { runExp(b, "e17") }
func BenchmarkE18_Stragglers(b *testing.B)           { runExp(b, "e18") }
func BenchmarkE19_Bimodal(b *testing.B)              { runExp(b, "e19") }
func BenchmarkE20_CrashRate(b *testing.B)            { runExp(b, "e20") }
func BenchmarkE21_CheckpointInterval(b *testing.B)   { runExp(b, "e21") }
func BenchmarkE22_StragglerCrash(b *testing.B)       { runExp(b, "e22") }
func BenchmarkE23_PlacementPolicies(b *testing.B)    { runExp(b, "e23") }
func BenchmarkE24_SpeculationDial(b *testing.B)      { runExp(b, "e24") }
func BenchmarkE25_PlacementFaults(b *testing.B)      { runExp(b, "e25") }
func BenchmarkE26_PhaseBreakdown(b *testing.B)       { runExp(b, "e26") }
func BenchmarkE27_CriticalPath(b *testing.B)         { runExp(b, "e27") }
func BenchmarkE28_TraceGuidedPlacement(b *testing.B) { runExp(b, "e28") }

func BenchmarkE29_AdaptivePolicyGrid(b *testing.B)        { runExp(b, "e29") }
func BenchmarkE30_MisreportedProfile(b *testing.B)        { runExp(b, "e30") }
func BenchmarkE31_AdaptiveTransientSlowdown(b *testing.B) { runExp(b, "e31") }
func BenchmarkE32_TransportSweep(b *testing.B)            { runExp(b, "e32") }

// --- direct algorithm micro-benchmarks with model-metric reporting ---

func benchCluster(b *testing.B, n, m int, f float64, noLarge bool) *hetmpc.Cluster {
	b.Helper()
	c, err := hetmpc.NewCluster(hetmpc.Config{N: n, M: m, F: f, NoLarge: noLarge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkMSTHeterogeneous(b *testing.B) {
	g := hetmpc.GNMWeighted(512, 8192, 3)
	var rounds, phases float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.MST(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
		phases = float64(r.BoruvkaPhases)
	}
	b.ReportMetric(rounds, "rounds")
	b.ReportMetric(phases, "phases")
}

func BenchmarkMSTSublinearBaseline(b *testing.B) {
	g := hetmpc.GNMWeighted(512, 8192, 3)
	var rounds, phases float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, true)
		r, err := hetmpc.BaselineMST(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
		phases = float64(r.Phases)
	}
	b.ReportMetric(rounds, "rounds")
	b.ReportMetric(phases, "phases")
}

func BenchmarkSpannerK4(b *testing.B) {
	g := hetmpc.ConnectedGNM(512, 6144, 5, false)
	var rounds, size float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.Spanner(c, g, 4)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
		size = float64(len(r.Edges))
	}
	b.ReportMetric(rounds, "rounds")
	b.ReportMetric(size, "edges")
}

func BenchmarkConnectivitySketches(b *testing.B) {
	g := hetmpc.GNM(512, 2048, 7)
	var rounds float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.Connectivity(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

func BenchmarkMatchingHeterogeneous(b *testing.B) {
	g := hetmpc.GNM(512, 4096, 9)
	var rounds float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.MaximalMatching(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

func BenchmarkMISHeterogeneous(b *testing.B) {
	g := hetmpc.GNM(512, 4096, 11)
	var iters float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.MIS(c, g)
		if err != nil {
			b.Fatal(err)
		}
		iters = float64(r.Iterations)
	}
	b.ReportMetric(iters, "iterations")
	b.ReportMetric(math.Log2(math.Log2(float64(g.MaxDegree()))+1), "loglogΔ")
}

func BenchmarkColoringHeterogeneous(b *testing.B) {
	g := hetmpc.GNM(512, 8192, 13)
	var rounds float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.Coloring(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

func BenchmarkTwoVsOneCycle(b *testing.B) {
	g := hetmpc.Cycles(4096, 2, 3)
	var rounds float64
	for i := 0; i < b.N; i++ {
		c := benchCluster(b, g.N, g.M(), 0, false)
		r, err := hetmpc.TwoVsOneCycle(c, g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(r.Stats.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}
