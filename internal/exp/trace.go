package exp

import (
	"cmp"
	"fmt"
	"sort"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The E26 and E28 sweeps exercise the trace subsystem (DESIGN.md §9): the
// per-round timeline behind Config.Trace, the phase spans the algorithms
// tag their round loops with, and the critical-path summary derived from
// both. Every cell is traced, so it re-asserts the conservation contract
// (traceConserved): the sweeps are also end-to-end tests of the trace layer
// on real algorithm traffic.

// topPhases returns the n largest-makespan phases of a summary (ties by
// first appearance).
func topPhases(s *trace.Summary, n int) []trace.PhaseStat {
	ps := append([]trace.PhaseStat(nil), s.Phases...)
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].Makespan > ps[b].Makespan })
	if len(ps) > n {
		ps = ps[:n]
	}
	return ps
}

// e26PhaseBreakdown decomposes three algorithms' makespans into their phase
// timelines across four machine profiles: which phase — distribute, sort,
// sketch gather, dissemination, sampling — carries the clock, which machine
// bounds it, and how the answer moves when capacity skew or stragglers are
// dialed in. The uniform row is the paper's cluster, stock coordinator
// included; every other profile runs on the beefy coordinator of the
// placement sweeps. MST's zipf and straggler cells also run a stock twin,
// and the pair asks, per phase, which machine bounds the clock: with a
// stock (speed-1) coordinator its fan-out bounds phases, and provisioning it
// away hands the critical path to the slow small machines exactly where the
// profile says it should. It returns an error unless some stock twin phase
// is bound by the large machine and some beefy twin phase by a small one.
// Every cell validates its output exactly and re-proves trace conservation.
func (rn *run) e26PhaseBreakdown(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E26 — phase breakdown and critical-path machine (top 3 phases by makespan share), n=%d m=%d", n, m),
		Header: []string{"alg", "profile", "coordinator", "phase", "rounds", "words",
			"makespan", "share", "bound by", "machine speed", "top share"},
	}
	gW := graph.ConnectedGNM(n, m, seed, true)
	gU := graph.ConnectedGNM(n, m, seed, false)
	_, wantW := graph.KruskalMSF(gW)
	_, wantComps := graph.Components(gU)

	algs := []struct {
		name string
		g    *graph.Graph
		run  func(*mpc.Cluster) (any, error)
	}{
		{"mst", gW, func(c *mpc.Cluster) (any, error) { return mst(gW, wantW)(c) }},
		{"connectivity", gU, func(c *mpc.Cluster) (any, error) { return cc(gU, wantComps)(c) }},
		{"matching", gU, func(c *mpc.Cluster) (any, error) { return maximal(gU, core.MaximalMatching)(c) }},
	}
	stockLarge, beefySmall := 0, 0
	for _, alg := range algs {
		for _, prof := range []string{"uniform", "zipf:0.8", "bimodal:0.25:4", "straggler:2:8"} {
			beefy := []bool{prof != "uniform"}
			twins := alg.name == "mst" && (prof == "zipf:0.8" || prof == "straggler:2:8")
			if twins {
				beefy = []bool{false, true}
			}
			for _, b := range beefy {
				coord := "stock"
				if b {
					coord = "beefy"
				}
				cfg := profiled(alg.g, seed, prof, b)
				cfg.Trace = trace.New()
				c, _, err := cell(rn, cfg, alg.run)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", alg.name, prof, coord, err)
				}
				for _, p := range topPhases(trace.Summarize(c.Trace().Rounds()), 3) {
					speed := "-"
					switch {
					case p.Top == trace.Large:
						speed = fmt.Sprintf("%g", cmp.Or(cfg.Profile.LargeSpeed, 1)) // 0 means 1
						if twins && !b {
							stockLarge++
						}
					case p.Top >= 0:
						speed = fmt.Sprintf("%g", cfg.Profile.Speed[p.Top])
						if twins && b {
							beefySmall++
						}
					}
					t.AddRow(alg.name, prof, coord, p.Phase, p.Rounds, p.Words,
						p.Makespan, p.Share, trace.MachineName(p.Top), speed, p.TopShare)
				}
			}
		}
	}
	if stockLarge == 0 || beefySmall == 0 {
		return nil, fmt.Errorf("expected a large-bound stock phase and a small-bound beefy phase, got stock large=%d beefy small=%d", stockLarge, beefySmall)
	}
	t.Notes = append(t.Notes,
		"each row is one phase path (innermost span wins, so shares partition the makespan exactly)",
		"conservation is re-proved per cell: Σ per-round contributions == Stats.Makespan bit-identically, Σ words == TotalWords",
		"'bound by' is the machine with the largest summed per-round charge inside the phase; 'machine speed' is its profile speed",
		"MST's stock twins: the large machine's fan-out bounds top phases; beefy: the critical path moves to the slow small machines",
	)
	return t, nil
}

// e28TraceGuidedPlacement explains the placement wins of E24 and E31 phase
// by phase: E24's MST workload under straggler:4:16 (the E24 rows where the
// dial matters most), run under cap, throughput and speculate:4, each with
// a trace. The per-phase gap columns attribute each policy's total makespan
// win to the phases that produced it — the sorts under arrange and
// broadcast, whose traffic follows the shares and static throughput
// rebalances, versus aggregate's sort, whose buckets are cut by key, and the
// sample phases, which only speculation can rescue.
func (rn *run) e28TraceGuidedPlacement(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E28 — trace-guided placement comparison (MST, straggler:4:16), n=%d m=%d", n, m),
		Header: []string{"policy", "phase", "makespan", "share",
			"gap vs cap", "gap share"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)

	capPhase := map[string]float64{}
	capTotal, thrTotal := 0.0, 0.0
	for _, pol := range []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 4}} {
		cfg := profiled(g, seed, "straggler:4:16", true)
		cfg.Placement, cfg.Trace = pol, trace.New()
		c, _, err := cell(rn, cfg, mst(g, exact))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol.Name(), err)
		}
		s := trace.Summarize(c.Trace().Rounds())
		switch pol.Name() {
		case "cap":
			capTotal = s.Makespan
			for _, p := range s.Phases {
				capPhase[p.Phase] = p.Makespan
			}
		case "throughput":
			thrTotal = s.Makespan
		default:
			if s.Makespan >= thrTotal {
				return nil, fmt.Errorf("speculation makespan %g did not beat static throughput %g at this dial", s.Makespan, thrTotal)
			}
		}
		// Per-phase gap attribution. The phase sets match across policies
		// (placement moves data, never the round structure), so the phase
		// gaps sum to the total gap.
		totalGap := capTotal - s.Makespan
		gapSum := 0.0
		for _, p := range s.Phases {
			gap := capPhase[p.Phase] - p.Makespan
			gapSum += gap
			gapShare := 0.0
			if totalGap != 0 {
				gapShare = gap / totalGap
			}
			t.AddRow(pol.Name(), p.Phase, p.Makespan, p.Share, gap, gapShare)
		}
		if pol.Name() != "cap" {
			if s.Makespan >= capTotal {
				return nil, fmt.Errorf("%s makespan %g did not beat cap %g (E24's invariant)", pol.Name(), s.Makespan, capTotal)
			}
			if diff := gapSum - totalGap; diff > 1e-6 || diff < -1e-6 {
				return nil, fmt.Errorf("%s: phase gaps sum to %g, total gap is %g", pol.Name(), gapSum, totalGap)
			}
		}
	}
	t.Notes = append(t.Notes,
		"'gap vs cap' is cap's phase makespan minus this policy's; the gaps sum to the total makespan win (checked)",
		"throughput's win concentrates in the share-weighted sorts under arrange and broadcast; speculation additionally collapses aggregate/sort, whose buckets are cut by key, and the straggler-bound sample phases",
	)
	return t, nil
}
