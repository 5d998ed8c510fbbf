package exp

import (
	"cmp"
	"fmt"
	"slices"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
)

// The E23–E25 sweeps exercise the placement-policy subsystem (DESIGN.md
// §8): pluggable work placement across heterogeneous machines — the
// capacity-proportional cap default, the min-makespan throughput split, and
// speculate:R's first-copy-wins redundant execution. The invariant every
// row re-asserts: placement moves data, never correctness — outputs are
// validated against the exact references under every policy, and the
// speculative copies are charged honestly (speculation words, partner busy
// time) rather than conjured for free.

// beefyCoordinator marks the large machine as the fast server it is in the
// model (it already holds ~n^{1-γ} times a small machine's memory; E23–E25
// provision its speed and link to match). Without this the coordinator's
// broadcast fan-out dominates every round's clock and no small-machine
// placement decision is visible in the makespan at all.
func beefyCoordinator(p *mpc.Profile) *mpc.Profile {
	p.LargeSpeed, p.LargeBandwidth = 64, 64
	return p
}

// e23Workload places and sample-sorts m weighted edges under one profile ×
// policy and returns the flattened sorted output with the cluster (E23 and
// E29 compare it row-for-row against the cap baseline's; E29 passes a trace
// collector to re-prove conservation cell by cell).
func (rn *run) e23Workload(g *graph.Graph, seed uint64, profile func(k int) *mpc.Profile, pol sched.Policy, tr *trace.Collector) (*mpc.Cluster, []graph.Edge, error) {
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: seed, Placement: pol, Trace: tr}
	if profile != nil {
		cfg.Profile = profile(cfg.DeriveK())
	}
	c, err := rn.build(cfg)
	if err != nil {
		return nil, nil, err
	}
	data, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, nil, err
	}
	sorted, err := prims.Sort(c, data, prims.EdgeWords, e17SortKey)
	if err != nil {
		return nil, nil, err
	}
	if !prims.IsGloballySorted(sorted, e17SortKey) {
		return nil, nil, fmt.Errorf("sort postcondition violated")
	}
	return c, prims.Flatten(sorted), nil
}

// e23PlacementPolicies crosses the three placement policies with the three
// canonical skew profiles under the placement+sort workload: cap pays the
// straggler tax, throughput irons static skew out of all three rounds — a
// sample, the reply to it and the route all follow the items a machine
// holds — and speculation finds nothing left to mirror (E24 turns its dial
// on MST, where rounds routed by key remain). Every row must reproduce the
// cap row's sorted output and round structure exactly.
func (rn *run) e23PlacementPolicies(seed uint64) (*Table, error) {
	const n, m = 512, 8192
	t := &Table{
		Title: fmt.Sprintf("E23 — placement policies × skew profiles (place + sample sort), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "rounds", "makespan", "vs cap",
			"imbalance", "spec words"},
	}
	g := graph.GNMWeighted(n, m, seed)
	profiles := []struct {
		name string
		gen  func(k int) *mpc.Profile
	}{
		{"zipf:0.8", func(k int) *mpc.Profile { return beefyCoordinator(mpc.ZipfProfile(k, 0.8, 0.05)) }},
		{"bimodal:0.25:4", func(k int) *mpc.Profile { return beefyCoordinator(mpc.BimodalProfile(k, 0.25, 4)) }},
		{"straggler:2:8", func(k int) *mpc.Profile { return beefyCoordinator(mpc.StragglerProfile(k, 2, 8)) }},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 2}}
	for _, prof := range profiles {
		var capOut []graph.Edge
		var capStats mpc.Stats
		for _, pol := range policies {
			c, out, err := rn.e23Workload(g, seed, prof.gen, pol, nil)
			if err != nil {
				return nil, fmt.Errorf("e23: %s/%s: %w", prof.name, pol.Name(), err)
			}
			st := c.Stats()
			if pol.Name() == "cap" {
				capOut, capStats = out, st
			} else {
				if len(out) != len(capOut) {
					return nil, fmt.Errorf("e23: %s/%s: output length %d, cap had %d", prof.name, pol.Name(), len(out), len(capOut))
				}
				for i := range out {
					if out[i] != capOut[i] {
						return nil, fmt.Errorf("e23: %s/%s: sorted output diverged from cap at item %d", prof.name, pol.Name(), i)
					}
				}
				if st.Rounds != capStats.Rounds {
					return nil, fmt.Errorf("e23: %s/%s: round structure changed: %d vs cap %d", prof.name, pol.Name(), st.Rounds, capStats.Rounds)
				}
			}
			t.AddRow(prof.name, pol.Name(), st.Rounds, st.Makespan,
				st.Makespan/capStats.Makespan, c.BusyImbalance(), st.SpeculationWords)
		}
	}
	t.Notes = append(t.Notes,
		"every policy reproduces the cap row's sorted output and round count exactly; only placement and the clock move",
		"zipf skews capacity only, so throughput clips to cap and the ratio stays 1; speed skew is where placement pays",
		"speculate:2 launches no copy: every round of a sample sort follows the placed items, so throughput leaves it no slow shard a fast machine could beat",
	)
	return t, nil
}

// placedMST runs exact MST on a beefy-coordinator straggler cluster under one
// placement policy (and, for E25, a fault plan) — the workload of E24, E25
// and E28 — and returns the cluster with the tree's edges by weight. MST is
// where speculation still has something to rescue: a plain sample sort's
// traffic, its replies included, follows the items a machine holds, which
// static throughput shares already balance (E23), while MST's aggregations
// and disseminations route by key — a key's partials and requests meet on
// one machine wherever the shares put it.
func (rn *run) placedMST(g *graph.Graph, exact int64, seed uint64, stragglers int, slowdown float64, pol sched.Policy, plan *fault.Plan, tr *trace.Collector) (*mpc.Cluster, []graph.Edge, error) {
	cfg := mpc.Config{N: g.N, M: g.M(), Seed: seed, Placement: pol, Faults: plan, Trace: tr}
	cfg.Profile = beefyCoordinator(mpc.StragglerProfile(cfg.DeriveK(), stragglers, slowdown))
	c, err := rn.build(cfg)
	if err != nil {
		return nil, nil, err
	}
	r, err := exactMST(c, g, exact)
	if err != nil {
		return nil, nil, err
	}
	tree := slices.Clone(r.Edges)
	slices.SortFunc(tree, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.W, b.W), cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return c, tree, nil
}

// e24SpeculationDial sweeps the redundancy dial R = 0..4 under straggler
// profiles: R = 0 is pure throughput placement (the rounds whose traffic
// follows the placed edges balance, the rounds routed by key still wait for
// the stragglers), and each additional speculated shard shaves those until
// every straggler is covered — at an honestly charged word cost. Every
// speculate row must reproduce the cap row's tree edge for edge and its round
// count, move exactly R = 0's algorithm words, and beat cap's makespan.
func (rn *run) e24SpeculationDial(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E24 — speculation dial R=0..4 under straggler profiles (MST), n=%d m=%d", n, m),
		Header: []string{"profile", "policy", "makespan", "vs cap",
			"spec words", "words"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	profiles := []struct {
		name       string
		stragglers int
		slowdown   float64
	}{
		{"straggler:2:8", 2, 8},
		{"straggler:4:16", 4, 16},
	}
	for _, prof := range profiles {
		capC, capTree, err := rn.placedMST(g, exact, seed, prof.stragglers, prof.slowdown, sched.Cap{}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("e24: %s/cap: %w", prof.name, err)
		}
		capStats := capC.Stats()
		t.AddRow(prof.name, "cap", capStats.Makespan, 1.0, 0, capStats.TotalWords)
		// Algorithm words are no longer placement-independent (DESIGN.md
		// §8): Sort's reply is a machine's own cuts, and the cuts follow the
		// splitters, which follow the shares. Every speculate row has R = 0's
		// shares, so R = 0's words are the reference; cap's differ.
		var thrWords int64
		for r := 0; r <= 4; r++ {
			c, tree, err := rn.placedMST(g, exact, seed, prof.stragglers, prof.slowdown, sched.Speculate{R: r}, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("e24: %s/R=%d: %w", prof.name, r, err)
			}
			st := c.Stats()
			if r == 0 {
				thrWords = st.TotalWords
			}
			if !slices.Equal(tree, capTree) {
				return nil, fmt.Errorf("e24: %s/R=%d: the tree diverged from cap's (%d edges vs %d)", prof.name, r, len(tree), len(capTree))
			}
			if st.Rounds != capStats.Rounds || st.TotalWords != thrWords {
				return nil, fmt.Errorf("e24: %s/R=%d: comm structure changed (rounds %d vs cap %d, words %d vs R=0 %d)",
					prof.name, r, st.Rounds, capStats.Rounds, st.TotalWords, thrWords)
			}
			if st.Makespan >= capStats.Makespan {
				return nil, fmt.Errorf("e24: %s/R=%d: makespan %g did not beat cap %g",
					prof.name, r, st.Makespan, capStats.Makespan)
			}
			t.AddRow(prof.name, fmt.Sprintf("speculate:%d", r), st.Makespan,
				st.Makespan/capStats.Makespan, st.SpeculationWords, st.TotalWords)
		}
	}
	t.Notes = append(t.Notes,
		"R=0 is pure throughput placement; R>=1 additionally mirrors the slowest per-round shards, first-copy-wins",
		"spec words are the honestly charged redundant traffic; algorithm words (last column) are identical in every speculate row",
		"the cap row's words differ: the splitters follow the placement shares, and Sort's reply to a machine is the cuts of its own run",
		"every speculate row reproduces the cap row's tree edge for edge; its weight is validated exact in every row",
	)
	return t, nil
}

// e25PlacementFaults crosses the placement policies with two PR-3 fault
// plans under MST on a straggler cluster: the E20 crash plan (checkpoints +
// seed-derived crashes) and a transient slowdown window on a fast machine —
// the case static placement cannot see coming, because shares are fixed
// before the run while the window opens mid-flight. Speculation reads the
// effective per-round costs, so it adapts to the window and must beat
// static throughput there. The MST weight is validated exact in every cell.
func (rn *run) e25PlacementFaults(seed uint64) (*Table, error) {
	const n, m = 512, 4096
	t := &Table{
		Title: fmt.Sprintf("E25 — placement × fault interaction under MST, n=%d m=%d (straggler:2:8 cluster)", n, m),
		Header: []string{"fault plan", "policy", "rounds", "crashes", "recovery rounds",
			"spec words", "makespan", "vs cap"},
	}
	g := graph.ConnectedGNM(n, m, seed, true)
	_, exact := graph.KruskalMSF(g)
	plans := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"ckpt:8+rate:0.002", func() *fault.Plan { return &fault.Plan{Interval: 8, CrashRate: 0.002} }},
		{"ckpt:8+slow:0:5:40:16", func() *fault.Plan {
			return &fault.Plan{Interval: 8, Slowdowns: []fault.Slowdown{{Machine: 0, From: 5, To: 40, Factor: 16}}}
		}},
	}
	policies := []sched.Policy{sched.Cap{}, sched.Throughput{}, sched.Speculate{R: 2}}
	for _, pl := range plans {
		capMakespan, thrMakespan := 0.0, 0.0
		for _, pol := range policies {
			c, _, err := rn.placedMST(g, exact, seed, 2, 8, pol, pl.plan(), nil)
			if err != nil {
				return nil, fmt.Errorf("e25: %s/%s: %w", pl.name, pol.Name(), err)
			}
			st := c.Stats()
			switch pol.Name() {
			case "cap":
				capMakespan = st.Makespan
			case "throughput":
				thrMakespan = st.Makespan
			default:
				if st.Makespan >= thrMakespan {
					return nil, fmt.Errorf("e25: %s: speculation makespan %g did not beat static throughput %g",
						pl.name, st.Makespan, thrMakespan)
				}
			}
			t.AddRow(pl.name, pol.Name(), st.Rounds, st.Crashes, st.RecoveryRounds,
				st.SpeculationWords, st.Makespan, st.Makespan/capMakespan)
		}
	}
	t.Notes = append(t.Notes,
		"the MST weight is validated exact in every cell: neither placement nor crash recovery may change the output",
		"the slow-window plan is the dynamic case: static shares are fixed pre-run, speculation reads per-round effective costs and adapts",
	)
	return t, nil
}
