package prims

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

func TestWeightedAssignZeroCapacity(t *testing.T) {
	for _, shares := range [][]float64{
		{0, 0, 0},
		{math.NaN(), 1, 1},
		{}, // no machines at all
	} {
		if _, _, err := weightedAssign(10, shares); !errors.Is(err, ErrZeroCapacity) {
			t.Fatalf("shares %v: want ErrZeroCapacity, got %v", shares, err)
		}
	}
	owner, _, err := weightedAssign(6, []float64{1, 1, 1})
	if err != nil || len(owner) != 6 {
		t.Fatalf("healthy shares failed: %v %v", owner, err)
	}
}

// TestSortCheckpointsLiveState: under an active fault plan the
// Distribute→Sort pipeline registers its buckets, so checkpoint barriers
// replicate real word volumes — and the sorted output stays bit-identical
// to the fault-free run (recovery is lossless).
func TestSortCheckpointsLiveState(t *testing.T) {
	g := graph.GNMWeighted(128, 1024, 3)
	run := func(plan *fault.Plan) ([][]graph.Edge, mpc.Stats) {
		cfg := mpc.Config{N: g.N, M: g.M(), Seed: 1, Faults: plan}
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := DistributeEdges(c, g)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := Sort(c, data, EdgeWords, edgeKey)
		if err != nil {
			t.Fatal(err)
		}
		return sorted, c.Stats()
	}
	plain, plainStats := run(nil)
	faulty, faultyStats := run(&fault.Plan{
		Interval: 1,
		Crashes:  []fault.Crash{{Round: 2, Machine: 0, RestartAfter: 1}},
	})
	if !reflect.DeepEqual(plain, faulty) {
		t.Fatal("fault injection changed the sorted output")
	}
	if faultyStats.Checkpoints == 0 || faultyStats.ReplicationWords == 0 {
		t.Fatalf("no state replicated: %+v", faultyStats)
	}
	if faultyStats.Crashes != 1 || faultyStats.RecoveryRounds == 0 {
		t.Fatalf("crash not recovered: %+v", faultyStats)
	}
	// Every edge lives on some machine the whole time, so each checkpoint
	// barrier replicates at least the full edge volume once.
	if want := int64(g.M() * EdgeWords); faultyStats.ReplicationWords < want {
		t.Fatalf("replication words %d below one full state pass %d",
			faultyStats.ReplicationWords, want)
	}
	if plainStats.Rounds != faultyStats.Rounds {
		t.Fatalf("fault plan changed the round structure: %d vs %d",
			plainStats.Rounds, faultyStats.Rounds)
	}
	if faultyStats.Makespan <= plainStats.Makespan {
		t.Fatal("recovery overhead missing from the makespan")
	}
}
