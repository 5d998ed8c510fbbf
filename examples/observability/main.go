// Observability: metrics, Perfetto traces, and the hettrace workflow.
//
// DESIGN.md §12 adds three observation channels to the simulator, all
// strictly read-only — a metered, traced run's Stats are bit-identical to
// the bare run, and leaving both hooks nil is the zero-overhead path:
//
//  1. a metrics registry (Config.Metrics = hetmpc.NewMetrics()): the
//     engine folds every round record into it at the barrier — run-wide
//     totals (mpc_words_total == Stats.TotalWords, exactly), per-machine
//     dimensions (mpc_send_words_total{machine}), per-phase attribution
//     (mpc_phase_words_total{phase}), the round-time histogram and the
//     fault counters;
//  2. the per-round trace (Config.Trace = hetmpc.NewTrace(), see
//     examples/round-traces), exportable as streaming JSONL or as Chrome
//     trace-event JSON you can drop into https://ui.perfetto.dev;
//  3. pprof hooks on the CLIs (-cpuprofile/-memprofile) for host-side
//     profiles of the simulator itself.
//
// This example runs MST on a straggler cluster with both hooks attached,
// verifies the conservation law, writes trace.jsonl + trace-perfetto.json
// + metrics.json into a temp dir, and prints the hettrace commands that
// pick the files up.
//
// Run with:
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hetmpc"
)

func main() {
	const n, m = 256, 2048
	g := hetmpc.ConnectedGNM(n, m, 5, true)

	// Step 1: a straggler cluster with a metrics registry and a trace
	// collector attached. Both observe; neither perturbs.
	reg := hetmpc.NewMetrics()
	tr := hetmpc.NewTrace()
	cfg := hetmpc.Config{N: n, M: m, Seed: 9, Metrics: reg, Trace: tr}
	cfg.Profile = hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := hetmpc.MST(c, g); err != nil {
		log.Fatal(err)
	}
	st := c.Stats()

	// Step 2: the conservation law the registry promises — the run-wide
	// word counter equals Stats.TotalWords exactly, and the per-phase
	// counters partition it. The snapshot is sorted, so the output is
	// deterministic.
	snap := reg.Snapshot()
	byName := map[string]hetmpc.MetricSample{} // the unlabelled samples are unique by name
	for _, s := range snap {
		byName[s.Name] = s
	}
	words := byName["mpc_words_total"].Value
	fmt.Printf("mpc_words_total = %d, Stats.TotalWords = %d (equal: %v)\n",
		words, st.TotalWords, words == st.TotalWords)
	fmt.Printf("mpc_rounds_total = %d (Stats.Rounds = %d), makespan gauge %.4g\n\n",
		byName["mpc_rounds_total"].Value, st.Rounds, byName["mpc_makespan"].Gauge)

	// Step 3: the per-phase traffic attribution, straight from the
	// snapshot.
	fmt.Printf("%-44s %10s\n", "phase", "words")
	for _, s := range snap {
		if s.Name != "mpc_phase_words_total" {
			continue
		}
		name := s.Labels["phase"]
		if name == "" {
			name = "(untagged)"
		}
		fmt.Printf("%-44s %10d\n", name, s.Value)
	}

	// Step 4: export. JSONL is the streaming format hettrace reads back;
	// the Perfetto file loads directly in https://ui.perfetto.dev (one
	// track per machine, one slice per round, phase spans as metadata).
	dir, err := os.MkdirTemp("", "hetmpc-obs")
	if err != nil {
		log.Fatal(err)
	}
	rounds := tr.Rounds()
	write := func(name string, emit func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := emit(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		return path
	}
	jsonl := write("trace.jsonl", func(f *os.File) error { return hetmpc.WriteTraceJSONL(f, rounds) })
	perfetto := write("trace-perfetto.json", func(f *os.File) error { return hetmpc.WriteTracePerfetto(f, rounds) })
	mjson := write("metrics.json", func(f *os.File) error { return reg.WriteJSON(f) })

	fmt.Printf("\nwrote %s, %s, %s\n", jsonl, perfetto, mjson)
	fmt.Println(`
next steps:
  go run ./cmd/hettrace summarize ` + jsonl + `
      critical-path table: per-phase makespan shares + bottleneck machines
  go run ./cmd/hettrace export -o t.json ` + jsonl + `
      Chrome trace-event JSON; open https://ui.perfetto.dev and load t.json
  go run ./cmd/hetbench -exp e14 -json -out /tmp/a && cp /tmp/a/BENCH_e14.json /tmp/old.json
  go run ./cmd/hetbench -exp e14 -json -out /tmp/a
  go run ./cmd/hettrace diff -threshold 2 /tmp/old.json /tmp/a/BENCH_e14.json
      per-phase makespan + wire-byte deltas; exits 1 on regression (CI gate)
  go run ./cmd/hetbench -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
  go tool pprof -top cpu.pprof
      host-side profile of the simulator itself`)
}
