// Placement policies: who gets the work on a skewed cluster?
//
// The paper places work uniformly; the cost model (DESIGN.md §6) made
// placement capacity-proportional. This example walks the third step — the
// pluggable placement policies of DESIGN.md §8 — on a straggler cluster
// whose slow tail sets the wall-clock:
//
//   - cap: capacity-proportional (the default). Capacities are uniform
//     here, so the stragglers hold full shares and dominate the makespan;
//   - throughput: share ∝ min(capacity, 1/word cost) — the stragglers
//     hold less, the route traffic rebalances;
//   - speculate:R: throughput plus first-copy-wins redundant execution of
//     the R slowest per-round shards on idle fast machines. The rounds no
//     static placement can rebalance (everyone receives the same broadcast)
//     shrink too, and every mirrored word is charged honestly;
//   - adaptive:ALPHA: throughput's split recomputed every round from
//     measured per-word costs (DESIGN.md §10). On a truthful profile it is
//     bit-identical to throughput — the estimator's fixed point is the
//     declaration; the second table below misreports the profile, the case
//     adaptive exists for.
//
// The MST itself is validated exact in every configuration: placement moves
// data and the clock, never the answer.
//
// Run with:
//
//	go run ./examples/placement-policies
package main

import (
	"fmt"
	"log"

	"hetmpc"
)

func main() {
	const n, m = 512, 4096
	g := hetmpc.ConnectedGNM(n, m, 5, true)
	_, exact := hetmpc.KruskalMSF(g)

	run := func(pol hetmpc.PlacementPolicy) hetmpc.ClusterStats {
		cfg := hetmpc.Config{N: n, M: m, Seed: 9, Placement: pol}
		// Two stragglers at 1/8 speed; the large machine is the beefy
		// server (it holds ~n^{1-γ} small machines' memory — provision its
		// compute and link to match, 64× a small machine's), so the
		// small-machine tail sets the clock.
		p := hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
		p.LargeCost = 1.0 / 32
		cfg.Profile = p
		c, err := hetmpc.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			log.Fatal(err)
		}
		if r.Weight != exact {
			log.Fatalf("placement changed the MST weight: %d, want %d", r.Weight, exact)
		}
		return c.Stats()
	}

	fmt.Println("MST on a straggler:2:8 cluster (weight validated exact everywhere)")
	fmt.Printf("%12s | %6s | %9s | %7s | %10s\n", "policy", "rounds", "makespan", "vs cap", "spec words")
	base := run(nil).Makespan
	for _, pol := range []hetmpc.PlacementPolicy{
		hetmpc.CapPlacement{},
		hetmpc.ThroughputPlacement{},
		hetmpc.SpeculatePlacement{R: 1},
		hetmpc.SpeculatePlacement{R: 2},
		hetmpc.AdaptivePlacement{Alpha: 0.5}, // truthful profile: == throughput
	} {
		st := run(pol)
		fmt.Printf("%12s | %6d | %9.4g | %7.3f | %10d\n",
			pol.Name(), st.Rounds, st.Makespan, st.Makespan/base, st.SpeculationWords)
	}

	// The adaptive case: the cluster *declares* itself uniform, but two of
	// its eight machines actually run 4× slower (a whole-run slowdown
	// window from the fault plan — DESIGN.md §7). Static policies trust the
	// declaration and split evenly; the adaptive estimator measures the
	// real per-word costs off the early rounds and re-splits at each round
	// barrier.
	const k = 8
	misreported := func(pol hetmpc.PlacementPolicy) hetmpc.ClusterStats {
		cfg := hetmpc.Config{N: n, M: m, K: k, Seed: 9, Placement: pol}
		p := hetmpc.UniformProfile(k)
		p.LargeCost = 1.0 / 32
		cfg.Profile = p
		cfg.Faults = &hetmpc.FaultPlan{Slowdowns: []hetmpc.FaultSlowdown{
			{Machine: k - 2, From: 1, To: 1 << 20, Factor: 4},
			{Machine: k - 1, From: 1, To: 1 << 20, Factor: 4},
		}}
		c, err := hetmpc.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			log.Fatal(err)
		}
		if r.Weight != exact {
			log.Fatalf("placement changed the MST weight: %d, want %d", r.Weight, exact)
		}
		return c.Stats()
	}

	fmt.Println()
	fmt.Println("Misreported profile: declared uniform, 2 of 8 machines actually 4× slower")
	fmt.Printf("%12s | %6s | %9s | %7s\n", "policy", "rounds", "makespan", "vs cap")
	base = misreported(hetmpc.CapPlacement{}).Makespan
	for _, pol := range []hetmpc.PlacementPolicy{
		hetmpc.CapPlacement{},        // trusts the declaration: even split
		hetmpc.ThroughputPlacement{}, // same — the *declared* speeds are uniform
		hetmpc.AdaptivePlacement{Alpha: 0.5},
	} {
		st := misreported(pol)
		fmt.Printf("%12s | %6d | %9.4g | %7.3f\n",
			pol.Name(), st.Rounds, st.Makespan, st.Makespan/base)
	}

	fmt.Println()
	fmt.Println("The same dial from the CLI:")
	fmt.Println("  hetrun -alg mst -profile straggler:2:8 -placement speculate:2")
	fmt.Println("  hetrun -alg mst -faults slow:6:1:64:4+slow:7:1:64:4 -placement adaptive")
	fmt.Println("  hetbench -exp e34                    # the placement grid: the dial, static and adaptive policies")
	fmt.Println("  hetbench -exp e18 -placement throughput -json -out bench")
}
