package hetmpc_test

import (
	"errors"
	"testing"

	"hetmpc"
)

// TestPublicAPIEndToEnd drives every public entry point once through the
// facade, the way a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	gW := hetmpc.ConnectedGNM(128, 1024, 3, true)
	gU := gW.Unweighted()

	newC := func(noLarge bool, f float64) *hetmpc.Cluster {
		c, err := hetmpc.NewCluster(hetmpc.Config{N: gW.N, M: gW.M(), F: f, NoLarge: noLarge, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	mst, err := hetmpc.MST(newC(false, 0), gW)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckMST(gW, mst.Edges); err != nil {
		t.Fatal(err)
	}

	sp, err := hetmpc.Spanner(newC(false, 0), gU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckSpanner(gU, hetmpc.NewGraph(gU.N, sp.Edges, false), sp.Stretch, 4, 7); err != nil {
		t.Fatal(err)
	}

	mm, err := hetmpc.MaximalMatching(newC(false, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckMatching(gU, mm.Edges, true); err != nil {
		t.Fatal(err)
	}

	mf, err := hetmpc.MatchingFiltering(newC(false, 0.4), gU)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckMatching(gU, mf.Edges, true); err != nil {
		t.Fatal(err)
	}

	cc, err := hetmpc.Connectivity(newC(false, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := hetmpc.Components(gU); cc.Components != want {
		t.Fatalf("components %d want %d", cc.Components, want)
	}

	mis, err := hetmpc.MIS(newC(false, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckMIS(gU, mis.Set); err != nil {
		t.Fatal(err)
	}

	col, err := hetmpc.Coloring(newC(false, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckColoring(gU, col.Colors, col.MaxColor); err != nil {
		t.Fatal(err)
	}

	mc, err := hetmpc.MinCutUnweighted(newC(false, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if want := hetmpc.StoerWagner(gU); mc.Value != want {
		t.Fatalf("min cut %d want %d", mc.Value, want)
	}

	// Baselines on a large-machine-free cluster.
	bmst, err := hetmpc.BaselineMST(newC(true, 0), gW)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetmpc.CheckMST(gW, bmst.Edges); err != nil {
		t.Fatal(err)
	}
	bcc, err := hetmpc.BaselineConnectivity(newC(true, 0), gU)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := hetmpc.Components(gU); bcc.Components != want {
		t.Fatalf("baseline components %d want %d", bcc.Components, want)
	}
}

// TestHeterogeneousVsBaselineRounds is the repository's headline invariant:
// on the same workload, the heterogeneous regime uses far fewer rounds than
// the sublinear baseline for connectivity (the clearest O(1)-vs-log-n row).
func TestHeterogeneousVsBaselineRounds(t *testing.T) {
	g := hetmpc.Cycles(1024, 2, 9)
	het, err := hetmpc.NewCluster(hetmpc.Config{N: g.N, M: g.M(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := hetmpc.TwoVsOneCycle(het, g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hetmpc.NewCluster(hetmpc.Config{N: g.N, M: g.M(), NoLarge: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := hetmpc.BaselineConnectivity(sub, g)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Cycles != 2 || rs.Components != 2 {
		t.Fatal("wrong answers")
	}
	if rh.Stats.Rounds*10 >= rs.Stats.Rounds {
		t.Fatalf("no separation: het %d rounds vs baseline %d", rh.Stats.Rounds, rs.Stats.Rounds)
	}
}

// TestCapacityFailureInjection starves the cluster two ways — capacities
// shrunk until the model enforcement fires, and a round budget shorter than
// MST — and checks each refusal is the façade's typed sentinel, so a
// downstream module can tell them apart with errors.Is alone.
func TestCapacityFailureInjection(t *testing.T) {
	g := hetmpc.GNMWeighted(256, 2048, 3)
	for _, tc := range []struct {
		name string
		cfg  hetmpc.Config
		want error
	}{
		{"capacity", hetmpc.Config{N: g.N, M: g.M(), Seed: 1, CSmall: 0.05, LogExpSmall: 1}, hetmpc.ErrCapacity},
		{"rounds", hetmpc.Config{N: g.N, M: g.M(), Seed: 1, MaxRounds: 3}, hetmpc.ErrRounds},
	} {
		c, err := hetmpc.NewCluster(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = hetmpc.MST(c, g)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: starved cluster returned %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	if _, err := hetmpc.NewCluster(hetmpc.Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := hetmpc.NewCluster(hetmpc.Config{N: 100, Gamma: 2}); err == nil {
		t.Fatal("gamma=2 accepted")
	}
}
