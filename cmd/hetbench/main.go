// Command hetbench regenerates the paper's evaluation artifacts: the Table 1
// comparison, the figure-style sweeps E2..E16, the heterogeneous-profile
// sweeps E17..E19, the fault-injection sweeps E21 and E22, the
// trace/critical-path sweep E26 and the placement grid E34 (traced, with
// each row's win attributed to phases; see DESIGN.md §2/§6/§7/§8/§9/§10
// and EXPERIMENTS.md).
//
// -profile, -faults, -placement and -transport rebuild every cluster of an
// experiment that does not sweep that axis itself and tag the artifact; an
// experiment that sweeps the axis (E26 for -profile, E21 for -faults, say)
// pins it on every cluster and runs, untagged, exactly as without the
// flag.
//
// Usage:
//
//	hetbench                    # run everything, text tables to stdout
//	hetbench -exp table1,e5     # selected experiments
//	hetbench -exp e2 -csv       # CSV output (for plotting)
//	hetbench -json -out bench   # machine-readable BENCH_<exp>.json artifacts:
//	                            # the model clock only, byte-reproducible —
//	                            # this is how the committed bench/ is
//	                            # regenerated (go test compares it to the
//	                            # byte); host-clock numbers live in perf/
//	hetbench -seed 7            # reseed the workloads
//	hetbench -exp table1 -profile straggler:2:8
//	                            # rebuild the clusters under a machine
//	                            # profile (uniform, zipf:S[:FLOOR],
//	                            # bimodal:SLOWFRAC:FACTOR, straggler:N:SLOW,
//	                            # custom:I=SPEED,...)
//	hetbench -exp table1 -faults ckpt:8+rate:0.002
//	                            # rebuild the clusters under a fault plan
//	                            # (ckpt:I, crash:R:M[:K], rate:P[:SEED],
//	                            # slow:M:FROM:TO:FACTOR, restart:K, joined
//	                            # by +); artifacts gain crashes /
//	                            # recovery_rounds / replication_words
//	hetbench -exp e18 -placement throughput
//	                            # rebuild the clusters under a placement
//	                            # policy (cap, throughput, speculate:R,
//	                            # adaptive[:ALPHA]); speculative traffic
//	                            # lands in speculation_words; adaptive
//	                            # re-estimates speeds online and re-splits
//	                            # at round boundaries
//	hetbench -exp table1 -transport tcp
//	                            # rebuild the clusters on a real Exchange
//	                            # transport (inproc, pipe, tcp); artifacts
//	                            # gain wire_bytes (measured frame bytes)
//	                            # while every modeled number stays
//	                            # bit-identical — the conformance contract
//	hetbench -exp table1 -trace # collect the per-round trace: text mode
//	                            # appends the phase summary table, -json
//	                            # artifacts gain the "trace" field (phase
//	                            # makespan shares, bottleneck machines);
//	                            # the measured stats are unchanged
//	hetbench -exp e14 -metrics m.json -traceout t.json
//	                            # observability outputs (DESIGN.md §12), one
//	                            # experiment at a time: the run-wide engine
//	                            # metrics snapshot ('-' = stdout; -json
//	                            # artifacts also embed it in the "metrics"
//	                            # field) and the concatenated per-round trace
//	                            # as Perfetto trace-event JSON (.jsonl =
//	                            # streaming JSONL); -traceout implies -trace
//	hetbench -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                            # pprof captures of the whole run
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"hetmpc/internal/cliflags"
	"hetmpc/internal/exp"
)

func main() {
	os.Exit(run())
}

func run() int {
	known := exp.IDs()
	var (
		expFlag = flag.String("exp", "all", fmt.Sprintf("comma-separated experiment ids (%s, %s..%s) or 'all'",
			known[0], known[1], known[len(known)-1]))
		seedFlag = flag.Uint64("seed", 7, "workload seed")
		csvFlag  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag = flag.Bool("json", false, "write BENCH_<exp>.json artifacts (rounds, words, makespan) instead of text tables")
		outFlag  = flag.String("out", ".", "output directory for -json artifacts")
		listFlag = flag.Bool("list", false, "list experiment ids and exit")
		model    = cliflags.Register(flag.CommandLine, " applied to every experiment cluster")
		obs      = cliflags.RegisterObs(flag.CommandLine)
	)
	flag.Parse()

	stopProfiles, err := obs.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "hetbench:", err)
		}
	}()

	env := obs.Env(*model)
	if err := env.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		return 2
	}
	if *listFlag {
		for _, id := range known {
			fmt.Println(id)
		}
		return 0
	}
	ids := known
	if *expFlag != "all" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !slices.Contains(known, id) {
				fmt.Fprintf(os.Stderr, "hetbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}
	if (obs.Metrics != "" || obs.TraceOut != "") && len(ids) != 1 {
		fmt.Fprintln(os.Stderr, "hetbench: -metrics and -traceout write one file; select exactly one experiment with -exp")
		return 2
	}
	for _, id := range ids {
		art, rounds, err := env.Run(id, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetbench: %s: %v\n", id, err)
			return 1
		}
		if obs.TraceOut != "" {
			if err := cliflags.WriteTraceFile(obs.TraceOut, rounds); err != nil {
				fmt.Fprintf(os.Stderr, "hetbench: %s: %v\n", id, err)
				return 1
			}
		}
		if obs.Metrics != "" {
			if err := cliflags.WriteMetricsFile(obs.Metrics, art.Metrics); err != nil {
				fmt.Fprintf(os.Stderr, "hetbench: %s: %v\n", id, err)
				return 1
			}
		}
		if !*jsonFlag {
			render(art.Table, *csvFlag)
			if model.Trace && art.Trace != nil {
				render(art.Trace.Table(fmt.Sprintf("%s — trace phase summary (%d clusters, %d rounds)",
					id, art.Trace.Clusters, art.Trace.Rounds)), *csvFlag)
			}
			continue
		}
		path, err := art.WriteFile(*outFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetbench: %s: %v\n", id, err)
			return 1
		}
		line := fmt.Sprintf("%s\trounds=%d words=%d makespan=%.3g",
			path, art.Model.Rounds, art.Model.TotalWords, art.Model.Makespan)
		if art.Model.Crashes > 0 || art.Model.Checkpoints > 0 {
			line += fmt.Sprintf(" crashes=%d recovery-rounds=%d repl-words=%d",
				art.Model.Crashes, art.Model.RecoveryRounds, art.Model.ReplicationWords)
		}
		if art.Model.SpeculationWords > 0 {
			line += fmt.Sprintf(" spec-words=%d", art.Model.SpeculationWords)
		}
		if art.Model.WireBytes > 0 {
			line += fmt.Sprintf(" wire-bytes=%d", art.Model.WireBytes)
		}
		if art.Trace != nil {
			line += fmt.Sprintf(" trace-phases=%d", len(art.Trace.Phases))
		}
		fmt.Println(line)
	}
	return 0
}

func render(t *exp.Table, csv bool) {
	if csv {
		t.RenderCSV(os.Stdout)
	} else {
		t.Render(os.Stdout)
	}
}
