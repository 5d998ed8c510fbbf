package exp

import (
	"fmt"
	"sort"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The E26–E28 sweeps exercise the trace subsystem (DESIGN.md §9): the
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
// sketch gather, dissemination, sampling — carries the clock, and how
// the answer moves when capacity skew or stragglers are dialed in. Every
// cell validates its output exactly and re-proves trace conservation.
func (rn *run) e26PhaseBreakdown(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E26 — phase breakdown (top 3 phases by makespan share), n=%d m=%d", n, m),
		Header: []string{"alg", "profile", "phase", "rounds", "words",
			"makespan", "share", "top machine"},
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
	for _, alg := range algs {
		// The uniform row is the paper's cluster, stock coordinator included.
		for _, prof := range []string{"uniform", "zipf:0.8", "bimodal:0.25:4", "straggler:2:8"} {
			cfg := profiled(alg.g, seed, prof, prof != "uniform")
			cfg.Trace = trace.New()
			c, _, err := cell(rn, cfg, alg.run)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", alg.name, prof, err)
			}
			for _, p := range topPhases(trace.Summarize(c.Trace().Rounds()), 3) {
				t.AddRow(alg.name, prof, p.Phase, p.Rounds, p.Words,
					p.Makespan, p.Share, trace.MachineName(p.Top))
			}
		}
	}
	t.Notes = append(t.Notes,
		"each row is one phase path (innermost span wins, so shares partition the makespan exactly)",
		"conservation is re-proved per cell: Σ per-round contributions == Stats.Makespan bit-identically, Σ words == TotalWords",
	)
	return t, nil
}

// e27CriticalPath asks, per phase, which machine bounds the clock — the
// large coordinator or a slow small machine — under capacity skew (zipf)
// and compute stragglers, with the coordinator provisioned both ways. With
// a stock (speed-1) coordinator its fan-out dominates nearly every phase;
// provisioning it away (the beefy server of the placement sweeps) hands the
// critical path to the slow small machines exactly where the profile says
// it should.
func (rn *run) e27CriticalPath(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E27 — critical-path machine attribution (top 3 phases), MST n=%d m=%d", n, m),
		Header: []string{"profile", "coordinator", "phase", "share",
			"bound by", "machine speed", "top share"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, want := graph.KruskalMSF(g)
	largeBound, smallBound := 0, 0
	for _, prof := range []string{"zipf:0.8", "straggler:2:8"} {
		for _, coord := range []string{"stock", "beefy"} {
			cfg := profiled(g, seed, prof, coord == "beefy")
			cfg.Trace = trace.New()
			c, _, err := cell(rn, cfg, mst(g, want))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof, coord, err)
			}
			p := cfg.Profile
			for _, ph := range topPhases(trace.Summarize(c.Trace().Rounds()), 3) {
				speed := "-"
				switch {
				case ph.Top == trace.Large:
					largeBound++
					speed = fmt.Sprintf("%g", orOne(p.LargeSpeed))
				case ph.Top >= 0:
					smallBound++
					speed = fmt.Sprintf("%g", p.Speed[ph.Top])
				}
				t.AddRow(prof, coord, ph.Phase, ph.Share,
					trace.MachineName(ph.Top), speed, ph.TopShare)
			}
		}
	}
	if largeBound == 0 || smallBound == 0 {
		return nil, fmt.Errorf("expected both large- and small-bound phases, got large=%d small=%d", largeBound, smallBound)
	}
	t.Notes = append(t.Notes,
		"'bound by' is the machine with the largest summed per-round charge inside the phase; 'machine speed' is its profile speed",
		"stock coordinator: the large machine's fan-out bounds the top phases; beefy: the critical path moves to the slow small machines",
	)
	return t, nil
}

// orOne mirrors the profile default: a zero spec field means scale 1.
func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
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
