// Command hetrun executes one heterogeneous-MPC algorithm on one graph and
// reports the output quality and the measured model metrics (rounds,
// messages, words).
//
// Usage:
//
//	hetrun -alg mst -n 1024 -m 8192
//	hetrun -alg spanner -k 4 -gen connected -n 512 -m 6144
//	hetrun -alg matching -gen hubs -n 600
//	hetrun -alg connectivity -input graph.txt
//	hetrun -alg mst -f 0.5            # superlinear large machine
//	hetrun -alg baseline-mst          # sublinear regime (no large machine)
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
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"hetmpc"
	"hetmpc/internal/cliflags"
	"hetmpc/internal/graph"
	"hetmpc/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// algorithms are the -alg values, one per case of dispatch.
var algorithms = []string{
	"mst", "spanner", "apsp", "matching", "matching-filter", "connectivity", "approx-mst", "mincut",
	"approx-mincut", "mis", "coloring", "2v1", "baseline-mst", "baseline-cc", "baseline-mis",
	"baseline-coloring", "baseline-matching",
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg   = fs.String("alg", "mst", "algorithm: "+strings.Join(algorithms, ", "))
		n     = fs.Int("n", 512, "vertices (generated workloads)")
		m     = fs.Int("m", 4096, "edges (generated workloads)")
		gen   = fs.String("gen", "gnm", "generator: gnm, connected, cycles, cycles2, hubs, grid, star")
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
	if !slices.Contains(algorithms, *alg) {
		fmt.Fprintf(stderr, "hetrun: unknown algorithm %q (one of: %s)\n", *alg, strings.Join(algorithms, ", "))
		return 2
	}
	// The parameter each algorithm reads must be one it can honour (core
	// clamps k silently and rejects eps only after the cluster is built).
	switch {
	case *alg == "spanner" && *k < 1:
		fmt.Fprintf(stderr, "hetrun: -k must be at least 1 for spanner, got %d\n", *k)
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

	g, err := makeGraph(*input, *gen, *n, *m, *seed, *alg)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	noLarge := strings.HasPrefix(*alg, "baseline-")
	cfg := hetmpc.Config{
		N: g.N, M: g.M(), Gamma: *gamma, F: *f, Seed: *seed, NoLarge: noLarge,
	}
	cfg.Profile, err = hetmpc.ParseProfile(model.Profile, cfg.DeriveK())
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	cfg.Faults, err = hetmpc.ParseFaultPlan(model.Faults, cfg.DeriveK())
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	cfg.Placement, err = hetmpc.ParsePlacement(model.Placement)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	cfg.Transport, err = hetmpc.ParseTransport(model.Transport)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 2
	}
	if obs.Tracing(model) {
		cfg.Trace = hetmpc.NewTrace()
	}
	if obs.Metrics != "" {
		cfg.Metrics = hetmpc.NewMetrics()
	}
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
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

	if err := dispatch(stdout, c, g, *alg, *k, *eps); err != nil {
		fmt.Fprintln(stderr, "hetrun:", err)
		return 1
	}
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

// printTrace renders the phase-level critical-path summary of a -trace run:
// one line per phase path with its makespan share and bottleneck machine.
// The footer re-states the conservation contract the trace satisfies.
func printTrace(w io.Writer, tr *hetmpc.Trace, st hetmpc.ClusterStats) {
	s := hetmpc.SummarizeTrace(tr.Rounds())
	fmt.Fprintf(w, "trace: %d records, %d exchange rounds, %d phases\n", tr.Len(), s.Rounds, len(s.Phases))
	fmt.Fprintf(w, "  %-44s %7s %10s %10s %6s  %s\n", "phase", "rounds", "words", "makespan", "share", "bottleneck")
	for _, p := range s.Phases {
		name := p.Phase
		if name == "" {
			name = "(untagged)"
		}
		fmt.Fprintf(w, "  %-44s %7d %10d %10.4g %5.1f%%  %s (%.0f%% of phase busy)\n",
			name, p.Rounds, p.Words, p.Makespan, 100*p.Share, hetmpc.TraceMachineName(p.Top), 100*p.TopShare)
	}
	fmt.Fprintf(w, "  conservation: trace makespan %.6g == model %.6g, trace words %d == model %d\n",
		s.Makespan, st.Makespan, s.Words, st.TotalWords)
}

func makeGraph(input, gen string, n, m int, seed uint64, alg string) (*hetmpc.Graph, error) {
	if input != "" {
		fh, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		// Accept both graph formats: the binary shard stream (graphgen -bin)
		// is sniffed by its block magic, anything else is the text format.
		br := bufio.NewReader(fh)
		if wire.SniffBlock(br) {
			return wire.ReadGraph(br)
		}
		return graph.Read(br)
	}
	weighted := alg == "mst" || alg == "baseline-mst" || alg == "approx-mst" || alg == "approx-mincut"
	switch gen {
	case "gnm":
		if weighted {
			return hetmpc.GNMWeighted(n, m, seed), nil
		}
		return hetmpc.GNM(n, m, seed), nil
	case "connected":
		return hetmpc.ConnectedGNM(n, m, seed, weighted), nil
	case "cycles":
		return hetmpc.Cycles(n, 1, seed), nil
	case "cycles2":
		return hetmpc.Cycles(n, 2, seed), nil
	case "hubs":
		return hetmpc.PlantedHubs(n, 4, 4, n/2, seed), nil
	case "grid":
		r := 1
		for r*r < n {
			r++
		}
		return hetmpc.Grid(r, r), nil
	case "star":
		return hetmpc.Star(n), nil
	}
	return nil, fmt.Errorf("unknown generator %q", gen)
}

func dispatch(w io.Writer, c *hetmpc.Cluster, g *hetmpc.Graph, alg string, k int, eps float64) error {
	switch alg {
	case "mst":
		r, err := hetmpc.MST(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMST(g, r.Edges); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "MST: weight=%d edges=%d boruvka-phases=%d sample-tries=%d (validated exact)\n",
			r.Weight, len(r.Edges), r.BoruvkaPhases, r.SampleTries)
	case "spanner":
		r, err := hetmpc.Spanner(c, g, k)
		if err != nil {
			return err
		}
		h := hetmpc.NewGraph(g.N, r.Edges, false)
		if err := hetmpc.CheckSpanner(g, h, r.Stretch, 4, 9); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "spanner: k=%d stretch<=%d edges=%d of %d (validated on sampled pairs)\n",
			k, r.Stretch, len(r.Edges), g.M())
	case "apsp":
		o, err := hetmpc.BuildAPSPOracle(c, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "APSP oracle: spanner edges=%d stretch<=%d d(0,%d)=%d\n",
			o.Spanner.M(), o.Stretch, g.N-1, o.Dist(0, g.N-1))
	case "matching":
		r, err := hetmpc.MaximalMatching(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMatching(g, r.Edges, true); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "matching: edges=%d phase1-iters=%d (validated maximal)\n", len(r.Edges), r.Phase1Iters)
	case "matching-filter":
		r, err := hetmpc.MatchingFiltering(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMatching(g, r.Edges, true); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "matching (filtering): edges=%d filter-iters=%d (validated maximal)\n", len(r.Edges), r.FilterIters)
	case "connectivity":
		r, err := hetmpc.Connectivity(c, g)
		if err != nil {
			return err
		}
		_, want := hetmpc.Components(g)
		if r.Components != want {
			return fmt.Errorf("validation: %d components, want %d", r.Components, want)
		}
		fmt.Fprintf(w, "connectivity: components=%d phases=%d (validated exact)\n", r.Components, r.Phases)
	case "approx-mst":
		r, err := hetmpc.ApproxMSTWeight(c, g, eps)
		if err != nil {
			return err
		}
		_, exact := hetmpc.KruskalMSF(g)
		fmt.Fprintf(w, "approx MST: estimate=%d exact=%d thresholds=%d\n", r.Estimate, exact, r.Thresholds)
	case "mincut":
		r, err := hetmpc.MinCutUnweighted(c, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "min cut: value=%d trials=%d\n", r.Value, r.Trials)
	case "approx-mincut":
		r, err := hetmpc.ApproxMinCut(c, g, eps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "approx min cut: value=%d guesses=%d\n", r.Value, r.Trials)
	case "mis":
		r, err := hetmpc.MIS(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMIS(g, r.Set); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "MIS: size=%d iterations=%d (validated)\n", len(r.Set), r.Iterations)
	case "coloring":
		r, err := hetmpc.Coloring(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckColoring(g, r.Colors, r.MaxColor); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "coloring: palette=%d conflict-edges=%d retries=%d (validated proper)\n",
			r.MaxColor+1, r.ConflictEdges, r.Retries)
	case "2v1":
		r, err := hetmpc.TwoVsOneCycle(c, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "2-vs-1 cycle: cycles=%d\n", r.Cycles)
	case "baseline-mst":
		r, err := hetmpc.BaselineMST(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMST(g, r.Edges); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "baseline MST: weight=%d phases=%d (validated exact)\n", r.Weight, r.Phases)
	case "baseline-cc":
		r, err := hetmpc.BaselineConnectivity(c, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "baseline connectivity: components=%d phases=%d\n", r.Components, r.Phases)
	case "baseline-mis":
		r, err := hetmpc.BaselineMIS(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMIS(g, r.Set); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "baseline MIS (Luby): size=%d rounds=%d (validated)\n", len(r.Set), r.Rounds)
	case "baseline-coloring":
		r, err := hetmpc.BaselineColoring(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckColoring(g, r.Colors, r.MaxColor); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "baseline coloring: palette=%d trials=%d (validated proper)\n", r.MaxColor+1, r.Rounds)
	case "baseline-matching":
		match, peel, err := hetmpc.BaselineMatching(c, g)
		if err != nil {
			return err
		}
		if err := hetmpc.CheckMatching(g, match, true); err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		fmt.Fprintf(w, "baseline matching: edges=%d peel-iters=%d (validated maximal)\n", len(match), peel.Iterations)
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}
	return nil
}
