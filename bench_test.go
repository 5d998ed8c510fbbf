package hetmpc_test

// BenchmarkExperiments runs every evaluation artifact (DESIGN.md §2,
// EXPERIMENTS.md) as a sub-benchmark named by its experiment id — table1
// regenerates the paper's Table 1, e2..e34 are the sweeps — through the
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
	"testing"

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
