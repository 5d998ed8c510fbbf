package hetmpc_test

import (
	"bytes"
	"runtime"
	"testing"

	"hetmpc"
	"hetmpc/internal/exp"
)

// TestPlacementGoldenUniformEquivalence pins the placement acceptance
// criteria against the same pre-profile goldens TestUniformProfileGoldens
// uses: on a uniform cluster, throughput and speculate placement must
// reproduce the cap default bit-identically — the golden communication
// stats AND the makespan, since all shares are exactly 1 and a speculative
// copy can never beat an equal machine.
func TestPlacementGoldenUniformEquivalence(t *testing.T) {
	g := hetmpc.ConnectedGNM(512, 4096, 7, true)
	want := comm{44, 38093, 290964, 16582, 25337}

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
		p.LargeSpeed, p.LargeBandwidth = 64, 64
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

// TestPlacementExperimentsDeterministicAcrossGOMAXPROCS pins the
// GOMAXPROCS-determinism golden for E23–E25: each experiment must render
// byte-identical tables on one CPU and on all of them (placement shares,
// speculation pairing and recovery pricing all run serially by design).
func TestPlacementExperimentsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep skipped in -short mode")
	}
	for _, id := range []string{"e23", "e24", "e25"} {
		id := id
		t.Run(id, func(t *testing.T) {
			render := func() string {
				art, _, err := exp.Env{}.Run(id, 7)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				art.Table.Render(&buf)
				return buf.String()
			}
			prev := runtime.GOMAXPROCS(1)
			one := render()
			runtime.GOMAXPROCS(prev)
			many := render()
			if one != many {
				t.Fatalf("%s diverges across GOMAXPROCS:\n--- 1 ---\n%s\n--- n ---\n%s", id, one, many)
			}
		})
	}
}
