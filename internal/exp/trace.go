package exp

import (
	"fmt"
	"sort"

	"hetmpc/internal/graph"
	"hetmpc/internal/trace"
)

// The E26 sweep exercises the trace subsystem (DESIGN.md §9): the per-round
// timeline behind Config.Trace, the phase spans the algorithms tag their
// round loops with, and the critical-path summary derived from both. Every
// cell is traced, so it re-asserts the conservation contract
// (traceConserved): the sweep is also an end-to-end test of the trace layer
// on real algorithm traffic. E24's traced cells attribute the placement
// wins to phases.

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
// stock (cost-2) coordinator its fan-out bounds phases, and provisioning it
// away hands the critical path to the slow small machines exactly where the
// profile says it should. It returns an error if a listed phase of any
// beefy cell is bound by the large machine, or if a stock twin lists no
// phase the large machine bounds.
// Every cell validates its output exactly and re-proves trace conservation.
func (rn *run) e26PhaseBreakdown(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E26 — phase breakdown and critical-path machine (top 3 phases by makespan share), n=%d m=%d", n, m),
		Header: []string{"alg", "profile", "coordinator", "phase", "rounds", "words",
			"makespan", "share", "bound by", "word cost", "top share"},
	}
	gW := graph.ConnectedGNM(n, m, seed, true)
	gU := graph.ConnectedGNM(n, m, seed, false)
	for _, name := range []string{"mst", "connectivity", "matching"} {
		alg, _ := LookupCall(name)
		g, run := alg.on(gU, gW, Params{})
		for _, prof := range []string{"uniform", "zipf:0.8", "bimodal:0.25:4", "straggler:2:8"} {
			beefy := []bool{prof != "uniform"}
			twins := name == "mst" && (prof == "zipf:0.8" || prof == "straggler:2:8")
			if twins {
				beefy = []bool{false, true}
			}
			for _, b := range beefy {
				coord := "stock"
				if b {
					coord = "beefy"
				}
				cfg := profiled(g, seed, prof, b)
				cfg.Trace = trace.New()
				c, _, err := cell(rn, cfg, run)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", name, prof, coord, err)
				}
				large := 0
				for _, p := range topPhases(trace.Summarize(c.Trace().Rounds()), 3) {
					cost := "-"
					if p.Top != trace.None {
						cost = fmt.Sprintf("%g", c.WordCost(p.Top))
					}
					if p.Top == trace.Large {
						large++
					}
					t.AddRow(name, prof, coord, p.Phase, p.Rounds, p.Words,
						p.Makespan, p.Share, trace.MachineName(p.Top), cost, p.TopShare)
				}
				if b && large > 0 {
					return nil, fmt.Errorf("%s/%s/%s: %d top phases bound by the provisioned large machine, want 0", name, prof, coord, large)
				}
				if twins && !b && large == 0 {
					return nil, fmt.Errorf("%s/%s/%s: no top phase bound by the large machine's fan-out", name, prof, coord)
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"each row is one phase path (innermost span wins, so shares partition the makespan exactly)",
		"conservation is re-proved per cell: Σ per-round contributions == Stats.Makespan bit-identically, Σ words == TotalWords",
		"'bound by' is the machine with the largest summed per-round charge inside the phase; 'word cost' is its time per word (WordCost)",
		"each MST stock twin lists a phase its coordinator's fan-out bounds; no beefy cell lists one the large machine bounds, the critical path is on the small machines (asserted)",
	)
	return t, nil
}
