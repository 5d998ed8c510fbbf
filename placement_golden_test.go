package hetmpc_test

import (
	"testing"

	"hetmpc"
)

// TestPlacementGoldenUniformEquivalence pins the placement acceptance
// criteria against the same pre-profile goldens TestUniformProfileGoldens
// uses: on a uniform cluster, throughput and speculate placement must
// reproduce the cap default bit-identically — the golden communication
// stats AND the makespan, since all shares are exactly 1 and a speculative
// copy can never beat an equal machine.
func TestPlacementGoldenUniformEquivalence(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	want := comm{48, 35400, 170902, 777, 3072}

	run := func(pol hetmpc.PlacementPolicy) hetmpc.ClusterStats {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: 7, Placement: pol})
		if err != nil {
			t.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != 153235 {
			t.Fatalf("mst weight %d, want golden 153235", r.Weight)
		}
		return c.Stats()
	}
	capStats := run(nil)
	if got := commOf(capStats); got != want {
		t.Fatalf("cap default diverged from the pre-policy golden: %+v, want %+v", got, want)
	}
	for _, pol := range []hetmpc.PlacementPolicy{
		hetmpc.CapPlacement{},
		hetmpc.ThroughputPlacement{},
		hetmpc.SpeculatePlacement{R: 2},
	} {
		if got := run(pol); got != capStats {
			t.Fatalf("%s on the uniform cluster not bit-identical to the default:\n got: %+v\nwant: %+v",
				pol.Name(), got, capStats)
		}
	}
}

// TestPlacementGoldenStragglerSpeculation pins the second acceptance
// criterion: on a straggler:2:8 profile, speculate strictly lowers the
// makespan against cap while the algorithm output and the comm-round
// structure stay unchanged, and the mirrored words are charged.
func TestPlacementGoldenStragglerSpeculation(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	run := func(pol hetmpc.PlacementPolicy) hetmpc.ClusterStats {
		cfg := hetmpc.Config{N: 512, M: 4096, Seed: 7, Placement: pol}
		p := hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
		p.LargeCost = 1.0 / 32
		cfg.Profile = p
		c, err := hetmpc.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := hetmpc.MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != 153235 {
			t.Fatalf("%s: mst weight %d, want golden 153235", pol.Name(), r.Weight)
		}
		return c.Stats()
	}
	capStats := run(hetmpc.CapPlacement{})
	for _, r := range []int{0, 1, 2, 4} {
		st := run(hetmpc.SpeculatePlacement{R: r})
		if st.Rounds != capStats.Rounds {
			t.Fatalf("R=%d changed the comm-round structure: %d vs %d", r, st.Rounds, capStats.Rounds)
		}
		if st.Makespan >= capStats.Makespan {
			t.Fatalf("R=%d makespan %v did not strictly beat cap %v", r, st.Makespan, capStats.Makespan)
		}
		if r > 0 && st.SpeculationWords == 0 {
			t.Fatalf("R=%d launched no speculative copies on a straggler profile", r)
		}
	}
}
