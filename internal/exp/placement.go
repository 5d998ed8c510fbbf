package exp

import (
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The placement grid exercises the placement-policy subsystem (DESIGN.md
// §8): pluggable work placement across heterogeneous machines — the
// capacity-proportional cap default, the min-makespan throughput split, and
// speculate:R's first-copy-wins redundant execution — and adaptive placement
// (DESIGN.md §10): the sched.Adaptive policy re-estimates every machine's
// effective per-word cost online (an EWMA over the rounds the run actually
// executes) and recomputes the throughput-style split at each round
// barrier. The invariant every row re-asserts: placement moves data, never
// correctness — outputs are validated against the exact references under
// every policy, and the speculative copies are charged honestly
// (speculation words, partner busy time) rather than conjured for free.

// A workload runs an algorithm on g over k machines (0 derives K) and
// returns its output in edgeKey order. byItems marks a sample sort: its
// traffic, replies included, follows the items a machine holds, which
// static throughput shares already balance, while MST's aggregations and
// disseminations route by key, so a key meets on one machine wherever the
// shares put it. MST is where speculation still has something to rescue.
type workload struct {
	name    string
	g       *graph.Graph
	k       int
	byItems bool
	run     func(*mpc.Cluster) ([]graph.Edge, error)
}

// gridN is every workload's vertex count.
const gridN = 512

// A gridBlock is one (workload, profile, fault plan) of the grid and its
// policy cells, cap first.
type gridBlock struct {
	workload
	profile, plan string
	policies      []sched.Policy
	slow          float64 // the plan's largest slowdown factor; 0 opens no window
	even          bool    // the declared per-word costs are all equal
	cells         []gridCell
}

// A gridCell is one policy's run of its block. A cell that beat cap
// attributes the win to its phases: phaseWin sums every phase's makespan
// fall from cap's, and top is the phase that fell most, by topWin.
type gridCell struct {
	pol              sched.Policy
	st               mpc.Stats
	est              int // exchange rounds the adaptive estimator observed
	imbalance        float64
	top              string
	phaseWin, topWin float64
}

// e34PlacementGrid crosses workloads, profiles, fault plans and placement
// policies: MST's speculation dial and its fault plans (a crash plan and a
// transient 16× window on the fastest machine, alone and checkpointed), and
// place + sample sort under three skews and, at K = 8, a misreported
// uniform profile. Every block is held to check's claims.
func (rn *run) e34PlacementGrid(seed uint64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E34 — placement grid: workload × profile × fault plan × policy, n=%d (mst m=4096, sort m=8192)", gridN),
		Header: []string{"workload", "profile", "fault plan", "policy", "rounds", "crashes", "recovery rounds",
			"est rounds", "spec words", "words", "makespan", "vs cap", "imbalance", "top win phase", "win share"},
	}
	if err := rn.addBlocks(t, placementGrid(seed), seed); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"every cell reproduces its block's cap output (the sorted edges, or the tree edge for edge) and round count; outputs are validated exact, so only placement and the clock move",
		"the dial: R=0 is pure throughput placement, R>=1 mirrors the slowest per-round shards first-copy-wins; spec words are the honestly charged redundant traffic, the words column is R=0's in every speculate row, and the makespan beats cap and never rises with R, R=4 beating R=0 (asserted)",
		"the cap row's words differ: the splitters follow the placement shares, and Sort's reply to a machine is the cuts of its own run",
		"throughput equals cap where the declared costs are even (zipf skews capacity only; the misreported uniform declaration) and beats it under declared speed skew (asserted both ways)",
		"with no slowdown window the estimator measures back exactly what was declared, so adaptive is bit-identical to throughput, crashes and recovery included; a window makes it beat throughput, and at >=4× slowdown its makespan is <= 0.8× cap's and throughput's (asserted)",
		"speculate:2 launches no copy on a sort with no window, whose every round follows the placed items; everywhere else it beats throughput (asserted)",
		"top win phase: the phase whose makespan fell most from cap's, win share: its part of the total win; the phase wins sum to the total win (asserted); est rounds: the exchange rounds the EWMA observed",
	)
	return t, nil
}

// placementGrid returns the grid's blocks, in row order.
func placementGrid(seed uint64) []*gridBlock {
	gT, gS := graph.ConnectedGNM(gridN, 4096, seed, true), graph.GNMWeighted(gridN, 8192, seed)
	tree, sorted := mst(gT), placeSort(gS)
	mstW := workload{name: "mst", g: gT, run: func(c *mpc.Cluster) ([]graph.Edge, error) {
		r, err := tree(c)
		if err != nil {
			return nil, err
		}
		prims.SortLocal(r.Edges, edgeKey)
		return r.Edges, nil
	}}
	sortW := workload{name: "sort", g: gS, byItems: true, run: func(c *mpc.Cluster) ([]graph.Edge, error) {
		s, err := sorted(c)
		return prims.Flatten(s), err
	}}
	sort8 := sortW
	sort8.name, sort8.k = "sort K=8", 8
	dial := []sched.Policy{sched.Cap{}, sched.Speculate{R: 0}, sched.Speculate{R: 1},
		sched.Speculate{R: 2}, sched.Speculate{R: 3}, sched.Speculate{R: 4}}
	four := []sched.Policy{sched.Cap{}, sched.Throughput{},
		sched.Speculate{R: 2}, sched.Adaptive{Alpha: sched.DefaultAlpha}}
	var grid []*gridBlock
	for _, prof := range []string{"straggler:2:8", "straggler:4:16"} {
		grid = append(grid, &gridBlock{workload: mstW, profile: prof, plan: "none", policies: dial})
	}
	for _, plan := range []string{"slow:0:5:40:16", "ckpt:8+slow:0:5:40:16", "ckpt:8+rate:0.002"} {
		grid = append(grid, &gridBlock{workload: mstW, profile: "straggler:2:8", plan: plan, policies: four})
	}
	for _, prof := range []string{"zipf:0.8", "bimodal:0.25:4", "straggler:2:8"} {
		grid = append(grid, &gridBlock{workload: sortW, profile: prof, plan: "none", policies: four})
	}
	for _, f := range []string{"2", "4", "10"} {
		// The sort runs 3 rounds, so windows over rounds 1..99 span the run.
		plan := fmt.Sprintf("slow:6:1:99:%s+slow:7:1:99:%s", f, f)
		grid = append(grid, &gridBlock{workload: sort8, profile: "uniform", plan: plan, policies: four})
	}
	return grid
}

// addBlocks runs every block of grid, holds it to check, and appends its
// rows to t.
func (rn *run) addBlocks(t *Table, grid []*gridBlock, seed uint64) error {
	for _, b := range grid {
		err := rn.runBlock(b, seed)
		if err == nil {
			err = b.check()
		}
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", b.name, b.profile, b.plan, err)
		}
		capSt := b.cells[0].st
		for _, c := range b.cells {
			var top, share any = "-", "-"
			if c.top != "" {
				top, share = c.top, c.topWin/(capSt.Makespan-c.st.Makespan)
			}
			t.AddRow(b.name, b.profile, b.plan, c.pol.Name(), c.st.Rounds, c.st.Crashes, c.st.RecoveryRounds,
				c.est, c.st.SpeculationWords, c.st.TotalWords, c.st.Makespan, c.st.Makespan/capSt.Makespan,
				c.imbalance, top, share)
		}
	}
	return nil
}

// runBlock runs every policy of b on its own traced cell, pinning the
// profile, fault plan and policy axes. The cap cell runs first, and every
// other cell must reproduce its output and round count exactly: placement
// moves data, never the result.
func (rn *run) runBlock(b *gridBlock, seed uint64) error {
	var capOut []graph.Edge
	capPhase := map[string]float64{}
	for _, pol := range b.policies {
		cfg := profiled(b.g, b.k, seed, b.profile, true)
		cfg.Placement, cfg.Faults, cfg.Trace = pol, planned(b.plan, cfg.DeriveK()), trace.New()
		c, out, err := cell(rn, cfg, b.run)
		if err != nil {
			return fmt.Errorf("%s: %w", pol.Name(), err)
		}
		gc := gridCell{pol: pol, st: c.Stats(), imbalance: c.BusyImbalance()}
		if est := c.PlacementEstimator(); est != nil {
			gc.est = est.Rounds()
		}
		phases := trace.Summarize(c.Trace().Rounds()).Phases
		if len(b.cells) == 0 {
			capOut = out
			costs := make([]float64, c.K())
			for i := range costs {
				costs[i] = c.WordCost(i)
			}
			b.even = slices.Min(costs) == slices.Max(costs)
			for _, s := range cfg.Faults.Slowdowns {
				b.slow = max(b.slow, s.Factor)
			}
			for _, p := range phases {
				capPhase[p.Phase] = p.Makespan
			}
		} else if capSt := b.cells[0].st; !slices.Equal(out, capOut) {
			return fmt.Errorf("%s: output diverged from cap's (%d items vs %d)", pol.Name(), len(out), len(capOut))
		} else if gc.st.Rounds != capSt.Rounds {
			return fmt.Errorf("%s: round structure changed: %d vs cap %d", pol.Name(), gc.st.Rounds, capSt.Rounds)
		} else if gc.st.Makespan < capSt.Makespan {
			for _, p := range phases {
				gap := capPhase[p.Phase] - p.Makespan
				gc.phaseWin += gap
				if gap > gc.topWin {
					gc.top, gc.topWin = p.Phase, gap
				}
			}
		}
		b.cells = append(b.cells, gc)
	}
	return nil
}

// cell returns the block's cell under the named policy, or nil.
func (b *gridBlock) cell(name string) *gridCell {
	for i := range b.cells {
		if b.cells[i].pol.Name() == name {
			return &b.cells[i]
		}
	}
	return nil
}

// check holds b to the grid's claims. Each is a predicate over the cells it
// compares and holds wherever those cells exist.
func (b *gridBlock) check() error {
	capSt, r0 := b.cells[0].st, b.cell("speculate:0")
	for _, c := range b.cells {
		// Placement moves data, never the round structure, so a cell's
		// phases are cap's and its phase wins sum to its total win.
		if win := capSt.Makespan - c.st.Makespan; win > 0 && math.Abs(c.phaseWin-win) > 1e-6 {
			return fmt.Errorf("%s: phase wins sum to %g, total win is %g", c.pol.Name(), c.phaseWin, win)
		}
		// The speculation dial: every speculate row moves R = 0's algorithm
		// words and beats cap, and the makespan never rises with R.
		// (Algorithm words are not placement-independent, DESIGN.md §8:
		// Sort's reply is a machine's own cuts, the cuts follow the
		// splitters, and the splitters follow the shares. Every speculate
		// row has R = 0's shares; cap's differ.)
		s, ok := c.pol.(sched.Speculate)
		if !ok || r0 == nil {
			continue
		}
		switch prev := b.cell(sched.Speculate{R: s.R - 1}.Name()); {
		case c.st.TotalWords != r0.st.TotalWords:
			return fmt.Errorf("%s: words %d vs R=0 %d", c.pol.Name(), c.st.TotalWords, r0.st.TotalWords)
		case c.st.Makespan >= capSt.Makespan:
			return fmt.Errorf("%s: makespan %g did not beat cap %g", c.pol.Name(), c.st.Makespan, capSt.Makespan)
		case prev != nil && c.st.Makespan > prev.st.Makespan:
			return fmt.Errorf("%s: makespan %g rose from R=%d's %g", c.pol.Name(), c.st.Makespan, s.R-1, prev.st.Makespan)
		}
	}
	if r4 := b.cell("speculate:4"); r0 != nil && r4 != nil && r4.st.Makespan >= r0.st.Makespan {
		return fmt.Errorf("speculate:4 makespan %g did not beat speculate:0 %g", r4.st.Makespan, r0.st.Makespan)
	}
	thr, sp, ad := b.cell("throughput"), b.cell("speculate:2"), b.cell(sched.Adaptive{Alpha: sched.DefaultAlpha}.Name())
	if thr == nil || sp == nil || ad == nil {
		return nil // a dial block
	}
	noCopy := b.byItems && b.slow == 0
	switch {
	// Throughput equals cap at even declared costs and beats it under
	// declared cost skew.
	case b.even && thr.st.Makespan != capSt.Makespan:
		return fmt.Errorf("throughput makespan %v differs from cap %v at even costs", thr.st.Makespan, capSt.Makespan)
	case !b.even && thr.st.Makespan >= capSt.Makespan:
		return fmt.Errorf("throughput makespan %v did not beat cap %v under cost skew", thr.st.Makespan, capSt.Makespan)
	// With no slowdown window the profile is truthful: the measured
	// per-word costs are the declared ones exactly, so adaptive must be
	// bit-identical to throughput. A window makes it beat throughput, and
	// once the slowdown is 4× or more it must recover at least 20% of
	// makespan against every static split.
	case b.slow == 0 && (ad.st.Makespan != thr.st.Makespan || ad.st.TotalWords != thr.st.TotalWords):
		return fmt.Errorf("adaptive (makespan %v, words %d) diverged from static throughput (%v, %d) under a truthful profile",
			ad.st.Makespan, ad.st.TotalWords, thr.st.Makespan, thr.st.TotalWords)
	case b.slow > 0 && ad.st.Makespan >= thr.st.Makespan:
		return fmt.Errorf("adaptive makespan %g did not beat static throughput %g", ad.st.Makespan, thr.st.Makespan)
	case b.slow >= 4 && (ad.st.Makespan > 0.8*capSt.Makespan || ad.st.Makespan > 0.8*thr.st.Makespan):
		return fmt.Errorf("adaptive makespan %g is not <= 0.8× static cap %g and throughput %g",
			ad.st.Makespan, capSt.Makespan, thr.st.Makespan)
	// Speculation reads the effective per-round costs: on a sort with no
	// window throughput leaves it no slow shard to mirror, and everywhere
	// else it must beat throughput.
	case noCopy && sp.st.SpeculationWords != 0:
		return fmt.Errorf("speculate:2 charged %d speculation words on a sample sort", sp.st.SpeculationWords)
	case !noCopy && sp.st.Makespan >= thr.st.Makespan:
		return fmt.Errorf("speculation makespan %g did not beat static throughput %g", sp.st.Makespan, thr.st.Makespan)
	}
	return nil
}
