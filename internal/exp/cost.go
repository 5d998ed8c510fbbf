package exp

import (
	"fmt"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
)

// The E17–E19 sweeps exercise the heterogeneous cost model (DESIGN.md §6):
// per-machine capacity/speed profiles and the simulated makespan. E17 skews
// capacities and shows capacity-proportional placement keeping every
// machine inside its cap; E18 and E19 skew only speeds/bandwidths, so the
// round structure stays bit-identical to the uniform run while the makespan
// shows stragglers and slow cohorts dominating the simulated wall-clock.

// e17SkewPlacement sweeps a Zipf capacity skew: edges are placed and sample
// sorted under per-machine caps; proportional allotment (Frisk's rule)
// keeps every bucket within its machine's capacity, and the held-item ratio
// tracks the capacity ratio.
func (rn *run) e17SkewPlacement(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	t := &Table{
		Title: fmt.Sprintf("E17 — Zipf capacity skew: proportional placement + sort, n=%d m=%d", n, m),
		Header: []string{"zipf s", "cap scale min..max", "items first/last machine",
			"held words/cap", "rounds", "makespan", "imbalance"},
	}
	g := graph.GNMWeighted(n, m, seed)
	for _, s := range []float64{0, 0.4, 0.8, 1.2} {
		cfg := het(n, m, 0, seed)
		cfg.Profile = mpc.ZipfProfile(cfg.DeriveK(), s, 0.05)
		c, sorted, err := cell(rn, cfg, placeSort(g))
		if err != nil {
			return nil, fmt.Errorf("s=%g: %w", s, err)
		}
		k := c.K()
		// Occupancy after the sort: the largest final bucket relative to
		// its own machine's cap. Per-round receive volumes are enforced
		// separately by Exchange (any violation would have errored above).
		worstFill := 0.0
		for i := 0; i < k; i++ {
			if fill := float64(len(sorted[i])*prims.EdgeWords) / float64(c.SmallCapOf(i)); fill > worstFill {
				worstFill = fill
			}
		}
		st := c.Stats()
		t.AddRow(s,
			fmt.Sprintf("%.2f..%.2f", c.CapShare(k-1), c.CapShare(0)),
			fmt.Sprintf("%d/%d", len(sorted[0]), len(sorted[k-1])),
			worstFill, st.Rounds, st.Makespan, c.BusyImbalance())
	}
	t.Notes = append(t.Notes,
		"buckets follow CapShare (machine 0 largest); every machine stays inside its own cap",
		"imbalance = max/mean small-machine busy time; 1 = perfectly balanced",
	)
	return t, nil
}

// e18Stragglers sweeps a straggler tail under MST: capacities (and hence
// the round structure and the output) are identical to the uniform run,
// while the makespan grows with the slowdown — the Reisizadeh et al.
// observation that stragglers dominate wall-clock. The last straggler's
// share of the makespan spent busy rises with the slowdown but saturates
// below 1: it idles through the rounds where it moves no word. It returns
// an error unless that share rises strictly with the slowdown.
func (rn *run) e18Stragglers(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title:  fmt.Sprintf("E18 — straggler tail under MST, n=%d m=%d: rounds flat, makespan tracks the slowdown", n, m),
		Header: []string{"slowdown", "stragglers", "rounds", "makespan", "vs uniform", "straggler busy share"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	baseRounds, baseMakespan, prevShare := 0, 0.0, 0.0
	for _, slowdown := range []float64{1, 4, 16, 64, 256} {
		cfg := het(n, m, 0, seed)
		k := cfg.DeriveK()
		stragglers := max(k/16, 1)
		cfg.Profile = mpc.StragglerProfile(k, stragglers, slowdown)
		c, _, err := cell(rn, cfg, mst(g))
		if err != nil {
			return nil, fmt.Errorf("slowdown=%g: %w", slowdown, err)
		}
		st := c.Stats()
		if slowdown == 1 {
			baseRounds, baseMakespan = st.Rounds, st.Makespan
		} else if st.Rounds != baseRounds {
			return nil, fmt.Errorf("slowdown=%g changed the round count: %d vs %d", slowdown, st.Rounds, baseRounds)
		}
		share := c.BusyTime(k-1) / st.Makespan
		if share <= prevShare {
			return nil, fmt.Errorf("slowdown=%g: straggler busy share %g did not rise from %g", slowdown, share, prevShare)
		}
		prevShare = share
		t.AddRow(slowdown, stragglers, st.Rounds, st.Makespan,
			st.Makespan/baseMakespan, share)
	}
	t.Notes = append(t.Notes,
		"speed-only skew: caps uniform, so placement, messages and output are bit-identical across rows",
		"the straggler busy share rises with the slowdown but saturates below 1: the straggler idles in rounds where it moves no word",
	)
	return t, nil
}

// e19Bimodal sweeps a fast/slow cluster (bimodal speeds and bandwidths)
// under connectivity and matching at constant round counts. A round's clock
// is set by its busiest machine, so the first slow cohort already sets it:
// both makespans are flat from an eighth of the cluster slow to half of it.
// Connectivity's grows less than matching's, because its two sketch gathers
// into the large machine, which no cohort slows, carry most of its
// makespan. It returns an error unless every row's rounds equal the uniform
// row's and, in every row with a slow cohort, connectivity's makespan ratio
// is below matching's.
func (rn *run) e19Bimodal(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	const factor = 4.0
	t := &Table{
		Title:  fmt.Sprintf("E19 — bimodal fast/slow (×%g) cluster, n=%d m=%d", factor, n, m),
		Header: []string{"slow frac", "cc rounds", "cc makespan", "vs uniform", "matching rounds", "matching makespan", "vs uniform"},
	}
	g := graph.GNM(n, m, seed)
	var baseCC, baseMatch mpc.Stats
	for _, slowFrac := range []float64{0, 0.125, 0.25, 0.5} {
		cfg := het(n, m, 0, seed)
		cfg.Profile = mpc.BimodalProfile(cfg.DeriveK(), slowFrac, factor)
		c, _, err := cell(rn, cfg, cc(g))
		if err != nil {
			return nil, fmt.Errorf("slowfrac=%g: %w", slowFrac, err)
		}
		cm, _, err := cell(rn, cfg, maximal(g, core.MaximalMatching))
		if err != nil {
			return nil, fmt.Errorf("slowfrac=%g: %w", slowFrac, err)
		}
		stc, stm := c.Stats(), cm.Stats()
		if slowFrac == 0 {
			baseCC, baseMatch = stc, stm
		}
		if stc.Rounds != baseCC.Rounds || stm.Rounds != baseMatch.Rounds {
			return nil, fmt.Errorf("slowfrac=%g changed the round counts: cc %d vs %d, matching %d vs %d",
				slowFrac, stc.Rounds, baseCC.Rounds, stm.Rounds, baseMatch.Rounds)
		}
		ccRatio, matchRatio := stc.Makespan/baseCC.Makespan, stm.Makespan/baseMatch.Makespan
		if slowFrac > 0 && ccRatio >= matchRatio {
			return nil, fmt.Errorf("slowfrac=%g: cc's makespan ratio %g is not below matching's %g", slowFrac, ccRatio, matchRatio)
		}
		t.AddRow(slowFrac, stc.Rounds, stc.Makespan, ccRatio,
			stm.Rounds, stm.Makespan, matchRatio)
	}
	t.Notes = append(t.Notes,
		"the slow cohort sits at the high machine ids; speeds and bandwidths scaled, caps uniform",
		"a round lasts as long as its busiest machine, so the makespans are flat from slow frac 0.125 to 0.5",
		"cc's ratio stays below matching's: its sketch gathers into the large machine, which no cohort slows, carry most of its makespan",
	)
	return t, nil
}
