package exp

import (
	"fmt"
	"sort"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The E26–E28 sweeps exercise the trace subsystem (DESIGN.md §9): the
// per-round timeline behind Config.Trace, the phase spans the algorithms
// tag their round loops with, and the critical-path summary derived from
// both. Every cell re-asserts the conservation contract — the ordered sum
// of per-round makespan contributions is bit-identical to Stats.Makespan
// and the per-round words sum to Stats.TotalWords — so the sweeps are also
// end-to-end tests of the trace layer on real algorithm traffic.

// traceConserved checks the trace conservation contract of one traced
// cluster and returns its summary.
func traceConserved(label string, c *mpc.Cluster) (*trace.Summary, error) {
	st := c.Stats()
	s := trace.Summarize(c.Trace().Rounds())
	if s.Makespan != st.Makespan {
		return nil, fmt.Errorf("%s: trace makespan %v != stats makespan %v (conservation broken)", label, s.Makespan, st.Makespan)
	}
	if s.Words != st.TotalWords {
		return nil, fmt.Errorf("%s: trace words %d != stats words %d", label, s.Words, st.TotalWords)
	}
	if s.Rounds != st.Rounds {
		return nil, fmt.Errorf("%s: trace rounds %d != stats rounds %d", label, s.Rounds, st.Rounds)
	}
	if len(s.Phases) == 0 {
		return nil, fmt.Errorf("%s: empty phase breakdown", label)
	}
	return s, nil
}

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
// timelines across three machine profiles: which phase — distribute, sort,
// sketch aggregation, dissemination, sampling — carries the clock, and how
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

	// Speed-skew profiles only: capacity skew (zipf) shrinks the small
	// machines below the sketch volume connectivity needs at this scale
	// (the capacity model rejects the run, as it must); E27 covers the
	// capacity-skew axis with MST, whose per-machine volume adapts.
	profiles := []struct {
		name string
		gen  func(k int) *mpc.Profile
	}{
		{"uniform", nil},
		{"bimodal:0.25:4", func(k int) *mpc.Profile { return beefyCoordinator(mpc.BimodalProfile(k, 0.25, 4)) }},
		{"straggler:2:8", func(k int) *mpc.Profile { return beefyCoordinator(mpc.StragglerProfile(k, 2, 8)) }},
	}
	algs := []struct {
		name string
		run  func(c *mpc.Cluster) error
	}{
		{"mst", func(c *mpc.Cluster) error {
			_, err := exactMST(c, gW, wantW)
			return err
		}},
		{"connectivity", func(c *mpc.Cluster) error {
			_, err := exactCC(c, gU, wantComps)
			return err
		}},
		{"matching", func(c *mpc.Cluster) error {
			_, err := maximalMatching(c, gU)
			return err
		}},
	}
	for _, alg := range algs {
		for _, prof := range profiles {
			cfg := mpc.Config{N: n, M: m, Seed: seed, Trace: trace.New()}
			if prof.gen != nil {
				cfg.Profile = prof.gen(cfg.DeriveK())
			}
			c, err := rn.build(cfg)
			if err != nil {
				return nil, err
			}
			if err := alg.run(c); err != nil {
				return nil, fmt.Errorf("e26: %s/%s: %w", alg.name, prof.name, err)
			}
			s, err := traceConserved("e26: "+alg.name+"/"+prof.name, c)
			if err != nil {
				return nil, err
			}
			for _, p := range topPhases(s, 3) {
				t.AddRow(alg.name, prof.name, p.Phase, p.Rounds, p.Words,
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
// provisioning it away (the beefy server of E23–E25) hands the critical
// path to the slow small machines exactly where the profile says it should.
func (rn *run) e27CriticalPath(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E27 — critical-path machine attribution (top 3 phases), MST n=%d m=%d", n, m),
		Header: []string{"profile", "coordinator", "phase", "share",
			"bound by", "machine speed", "top share"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, want := graph.KruskalMSF(g)
	profiles := []struct {
		name string
		gen  func(k int) *mpc.Profile
	}{
		{"zipf:0.8", func(k int) *mpc.Profile { return mpc.ZipfProfile(k, 0.8, 0.05) }},
		{"straggler:2:8", func(k int) *mpc.Profile { return mpc.StragglerProfile(k, 2, 8) }},
	}
	largeBound, smallBound := 0, 0
	for _, prof := range profiles {
		for _, beefy := range []bool{false, true} {
			coord := "stock"
			cfg := mpc.Config{N: n, M: m, Seed: seed, Trace: trace.New()}
			p := prof.gen(cfg.DeriveK())
			if beefy {
				coord = "beefy"
				p = beefyCoordinator(p)
			}
			cfg.Profile = p
			c, err := rn.build(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := exactMST(c, g, want); err != nil {
				return nil, fmt.Errorf("e27: %s/%s: %w", prof.name, coord, err)
			}
			s, err := traceConserved("e27: "+prof.name+"/"+coord, c)
			if err != nil {
				return nil, err
			}
			for _, ph := range topPhases(s, 3) {
				speed := "-"
				switch {
				case ph.Top == trace.Large:
					largeBound++
					speed = fmt.Sprintf("%g", orOne(p.LargeSpeed))
				case ph.Top >= 0:
					smallBound++
					speed = fmt.Sprintf("%g", p.Speed[ph.Top])
				}
				t.AddRow(prof.name, coord, ph.Phase, ph.Share,
					trace.MachineName(ph.Top), speed, ph.TopShare)
			}
		}
	}
	if largeBound == 0 || smallBound == 0 {
		return nil, fmt.Errorf("e27: expected both large- and small-bound phases, got large=%d small=%d", largeBound, smallBound)
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

// e28TraceGuidedPlacement explains E24/E25's placement wins phase by phase:
// E24's MST workload under straggler:4:16 (the E24 rows where the dial
// matters most), run under cap, throughput and speculate:4, each with a
// trace. The per-phase gap columns attribute each policy's total makespan
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
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 4}}

	capPhase := map[string]float64{}
	capTotal, thrTotal := 0.0, 0.0
	for _, pol := range policies {
		c, _, err := rn.placedMST(g, exact, seed, 4, 16, pol, nil, trace.New())
		if err != nil {
			return nil, fmt.Errorf("e28: %s: %w", pol.Name(), err)
		}
		s, err := traceConserved("e28: "+pol.Name(), c)
		if err != nil {
			return nil, err
		}
		isCap := pol.Name() == "cap"
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
				return nil, fmt.Errorf("e28: speculation makespan %g did not beat static throughput %g at this dial", s.Makespan, thrTotal)
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
		if !isCap {
			if s.Makespan >= capTotal {
				return nil, fmt.Errorf("e28: %s makespan %g did not beat cap %g (E24's invariant)", pol.Name(), s.Makespan, capTotal)
			}
			if diff := gapSum - totalGap; diff > 1e-6 || diff < -1e-6 {
				return nil, fmt.Errorf("e28: %s: phase gaps sum to %g, total gap is %g", pol.Name(), gapSum, totalGap)
			}
		}
	}
	t.Notes = append(t.Notes,
		"'gap vs cap' is cap's phase makespan minus this policy's; the gaps sum to the total makespan win (checked)",
		"throughput's win concentrates in the share-weighted sorts under arrange and broadcast; speculation additionally collapses aggregate/sort, whose buckets are cut by key, and the straggler-bound sample phases",
	)
	return t, nil
}
