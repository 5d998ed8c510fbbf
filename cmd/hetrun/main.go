// Command hetrun executes one heterogeneous-MPC algorithm on one graph and
// reports the output quality and the measured model metrics (rounds,
// messages, words). Every answer with a reference is checked against it.
//
// -alg names an entry of internal/exp/calls.go, the table Table 1's rows
// are picked from: its regime, input weighting, check and report line.
// -gen names one of graph.Generators, built by graph.Generate as in
// cmd/graphgen. The model and observability flags fill an exp.Env, and
// Env.Apply turns it into the cluster's Config: the fill every hetbench
// cluster gets.
//
// Usage:
//
//	hetrun -alg mst -n 1024 -m 8192
//	hetrun -alg spanner -k 4 -gen connected -n 512 -m 6144
//	hetrun -alg matching -gen hubs -n 600
//	hetrun -alg connectivity -input graph.txt
//	hetrun -alg mst -f 0.5            # superlinear large machine
//	hetrun -alg baseline-mst          # sublinear regime (no large machine)
//	hetrun -alg baseline-spanner -k 3 # Table 1's spanner baseline
//	hetrun -alg mst -profile straggler:2:8
//	                                  # heterogeneous machine profile; the
//	                                  # model line reports the simulated
//	                                  # makespan under it
//	hetrun -alg mst -faults ckpt:8+rate:0.002
//	                                  # fault injection + recovery: crashes,
//	                                  # recovery rounds and replication words
//	                                  # join the model line; the output is
//	                                  # still validated exact
//	hetrun -alg mst -profile straggler:2:8 -placement speculate:2
//	                                  # placement policy (cap, throughput,
//	                                  # speculate:R, adaptive[:ALPHA]): work
//	                                  # splits follow the policy, speculative
//	                                  # copies land in spec-words on the
//	                                  # model line; adaptive re-splits at
//	                                  # round boundaries from measured speeds
//	hetrun -alg mst -trace            # per-round trace: appends the phase
//	                                  # summary (makespan share + bottleneck
//	                                  # machine per phase span); the model
//	                                  # line is unchanged — tracing observes
//	hetrun -alg mst -transport tcp    # run the Exchange deliver phase over a
//	                                  # real transport (inproc, pipe, tcp);
//	                                  # the model line gains wire-bytes, the
//	                                  # measured frame bytes, while every
//	                                  # modeled number stays bit-identical
//	                                  # (DESIGN.md §11)
//	hetrun -alg mst -metrics m.json -traceout t.json
//	                                  # observability outputs (DESIGN.md §12):
//	                                  # the engine metrics snapshot as JSON
//	                                  # ('-' = stdout) and the per-round trace
//	                                  # as Perfetto-loadable trace-event JSON
//	                                  # (.jsonl extension = streaming JSONL);
//	                                  # -traceout implies -trace collection
//	hetrun -alg mst -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                  # pprof captures; inspect with
//	                                  # go tool pprof cpu.pprof
//
// Exit codes: 0 ok, 1 the run or the validation of its output failed, 2 bad
// input — an unknown flag, algorithm or generator, a -k or -eps the
// algorithm cannot honour, a spec that does not parse, an unreadable graph —
// refused before any work is done, with nothing on stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hetmpc"
	"hetmpc/internal/cliflags"
	"hetmpc/internal/exp"
	"hetmpc/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg   = fs.String("alg", "mst", "algorithm: "+strings.Join(exp.CallNames(), ", "))
		n     = fs.Int("n", 512, "vertices (generated workloads)")
		m     = fs.Int("m", 4096, "edges (generated workloads)")
		gen   = fs.String("gen", "gnm", "generator: "+strings.Join(graph.Generators, ", "))
		input = fs.String("input", "", "read the graph from a file instead of generating")
		seed  = fs.Uint64("seed", 1, "seed for the workload and the cluster")
		gamma = fs.Float64("gamma", 0.5, "small-machine exponent γ")
		f     = fs.Float64("f", 0, "large-machine extra exponent f")
		k     = fs.Int("k", 4, "spanner parameter k")
		eps   = fs.Float64("eps", 0.25, "approximation parameter ε")
		model = cliflags.Register(fs, "")
		obs   = cliflags.RegisterObs(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	call, ok := exp.LookupCall(*alg)
	if !ok {
		fmt.Fprintf(stderr, "hetrun: unknown algorithm %q (one of: %s)\n", *alg, strings.Join(exp.CallNames(), ", "))
		return 2
	}
	// The parameter each algorithm reads must be one it can honour (the
	// spanners clamp k silently; core rejects eps after the cluster is built).
	switch {
	case (*alg == "spanner" || *alg == "baseline-spanner") && *k < 1:
		fmt.Fprintf(stderr, "hetrun: -k must be at least 1 for %s, got %d\n", *alg, *k)
		return 2
	case *alg == "approx-mst" && (!(*eps > 0) || math.IsInf(*eps, 1)):
		fmt.Fprintf(stderr, "hetrun: -eps must be positive and finite for approx-mst, got %g\n", *eps)
		return 2
	case *alg == "approx-mincut" && !(*eps > 0 && *eps < 1):
		fmt.Fprintf(stderr, "hetrun: -eps must be in (0,1) for approx-mincut, got %g\n", *eps)
		return 2
	}

	stopProfiles, err := obs.StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "hetrun:", err)
		}
	}()

	g, err := makeGraph(*input, *gen, *n, *m, *seed, call.Weighted)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	cfg, err := obs.Env(*model).Apply(hetmpc.Config{
		N: g.N, M: g.M(), Gamma: *gamma, F: *f, Seed: *seed, NoLarge: call.NoLarge,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		if errors.Is(err, hetmpc.ErrTransport) {
			return 1 // the links failed to open: a run failure, not bad input
		}
		return 2
	}
	defer c.Close()
	largeCap := "-" // no large machine: the baselines' sublinear cluster
	if c.HasLarge() {
		largeCap = strconv.Itoa(c.LargeCap())
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d Δ=%d avg-deg=%.1f | cluster: K=%d small-cap=%d large-cap=%s",
		g.N, g.M(), g.MaxDegree(), g.AvgDegree(), c.K(), c.SmallCap(), largeCap)
	if p := c.Profile(); p != nil {
		fmt.Fprintf(stdout, " profile=%s min-cap=%d", p.Name, c.MinSmallCap())
	}
	if p := c.Faults(); p != nil {
		fmt.Fprintf(stdout, " faults=%s", p.Name)
	}
	if p := c.Placement(); p.Name() != "cap" {
		fmt.Fprintf(stdout, " placement=%s", p.Name())
		if got := c.SpeculationR(); got != p.Speculation() {
			// The dial was clamped to K/2: report what actually runs.
			fmt.Fprintf(stdout, " (effective speculate:%d)", got)
		}
	}
	if name := c.TransportName(); name != "inproc" {
		fmt.Fprintf(stdout, " transport=%s", name)
	}
	fmt.Fprintln(stdout)

	_, report, err := call.Run(c, g, exp.Params{K: *k, Eps: *eps, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 1
	}
	fmt.Fprintln(stdout, report)
	st := c.Stats()
	fmt.Fprintf(stdout, "model: rounds=%d messages=%d words=%d max-send=%d max-recv=%d makespan=%.4g imbalance=%.2f",
		st.Rounds, st.Messages, st.TotalWords, st.MaxSendWords, st.MaxRecvWords, st.Makespan, c.BusyImbalance())
	if c.FaultsActive() {
		fmt.Fprintf(stdout, " crashes=%d recovery-rounds=%d checkpoints=%d repl-words=%d",
			st.Crashes, st.RecoveryRounds, st.Checkpoints, st.ReplicationWords)
	}
	if st.SpeculationWords > 0 {
		fmt.Fprintf(stdout, " spec-words=%d", st.SpeculationWords)
	}
	if st.WireBytes > 0 {
		fmt.Fprintf(stdout, " wire-bytes=%d", st.WireBytes)
	}
	fmt.Fprintln(stdout)
	if tr := c.Trace(); tr != nil {
		if model.Trace {
			printTrace(stdout, tr, st)
		}
		if obs.TraceOut != "" {
			if err := cliflags.WriteTraceFile(obs.TraceOut, tr.Rounds()); err != nil {
				fmt.Fprintln(stderr, "hetrun:", err)
				return 1
			}
		}
	}
	if obs.Metrics != "" {
		if err := cliflags.WriteMetricsFile(obs.Metrics, c.Metrics().Snapshot()); err != nil {
			fmt.Fprintln(stderr, "hetrun:", err)
			return 1
		}
	}
	return 0
}

// printTrace renders the phase-level critical-path summary of a -trace run
// (trace.Summary.WriteTable). The footer re-states the conservation contract
// the trace satisfies.
func printTrace(w io.Writer, tr *hetmpc.Trace, st hetmpc.ClusterStats) {
	s := hetmpc.SummarizeTrace(tr.Rounds())
	fmt.Fprintf(w, "trace: %d records, %d exchange rounds, %d phases\n", tr.Len(), s.Rounds, len(s.Phases))
	s.WriteTable(w)
	fmt.Fprintf(w, "conservation: trace makespan %.6g == model %.6g, trace words %d == model %d\n",
		s.Makespan, st.Makespan, s.Words, st.TotalWords)
}

func makeGraph(input, gen string, n, m int, seed uint64, weighted bool) (*hetmpc.Graph, error) {
	if input != "" {
		fh, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		return graph.Read(fh)
	}
	return graph.Generate(gen, n, m, seed, weighted)
}
