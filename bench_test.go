package hetmpc_test

// BenchmarkExperiments runs every evaluation artifact (DESIGN.md §2,
// EXPERIMENTS.md) as a sub-benchmark named by its experiment id — table1
// regenerates the paper's Table 1, e2..e32 are the sweeps — through the
// heterogeneous-MPC simulator, validating every output against the exact
// references, and reports the measured model metrics via b.ReportMetric.
// It writes nothing: the committed bench/BENCH_<exp>.json artifacts are
// generated by `go run ./cmd/hetbench -json -out bench` and pinned to the
// byte by TestExperimentsExecute in internal/exp. ns/op and allocs/op here
// are a local convenience; the host-clock benchmark is perf/.
//
// Run everything once:
//
//	go test -run NONE -bench . -benchmem -benchtime 1x .
//
// One experiment: `go test -run NONE -bench 'Experiments/e2$' .` gives the
// table's headline numbers without the CLI.

import (
	"math"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

func BenchmarkExperiments(b *testing.B) {
	for _, id := range exp.IDs() {
		b.Run(id, func(b *testing.B) {
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
		})
	}
}

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
