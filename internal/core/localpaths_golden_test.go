package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/labeling"
	"hetmpc/internal/mpc"
)

// digest is the size of a slice output and the FNV-64a hash of its %v form.
func digest[T any](xs []T) (int, uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", xs)
	return len(xs), h.Sum64()
}

// TestLocalPathsGolden pins the outputs of large-machine local algorithms
// that the Table-1 and bench goldens never reach: the list path of Coloring
// (Δ above the direct-ship threshold), a Spanner with sampled levels (the
// modified Baswana-Sen tables and removal edges), the flow labels of a large
// forest, and the two local Baswana-Sen references. A change to how these
// keep their per-vertex state must leave every size and hash unchanged.
func TestLocalPathsGolden(t *testing.T) {
	type pin struct {
		size int
		sum  uint64
	}
	check := func(t *testing.T, name string, size int, sum uint64, want pin) {
		t.Helper()
		if size != want.size || sum != want.sum {
			t.Errorf("%s: size %d hash %#x, want %d %#x", name, size, sum, want.size, want.sum)
		}
	}

	t.Run("coloring-lists", func(t *testing.T) {
		g := graph.Complete(280, false, 2)
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Gamma: 0.7, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Coloring(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConflictEdges != 25085 || res.Retries != 0 {
			t.Errorf("conflict edges %d retries %d, want 25085 0", res.ConflictEdges, res.Retries)
		}
		size, sum := digest(res.Colors)
		check(t, "coloring", size, sum, pin{280, 0x8392ef4fbaaf9b23})
	})

	t.Run("spanner-sampled", func(t *testing.T) {
		g := graph.ConnectedGNM(1024, 65536, 7, false)
		c := newCluster(t, g.N, g.M(), 7)
		res, err := Spanner(c, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.SampledLevels == 0 {
			t.Fatalf("no sampled level (direct %d): the modified Baswana-Sen path did not run", res.DirectLevels)
		}
		size, sum := digest(res.Edges)
		check(t, "spanner", size, sum, pin{1145, 0xd2642c0374b1ae3})
	})

	t.Run("labeling", func(t *testing.T) {
		g := graph.ConnectedGNM(8192, 32768, 3, true)
		msf, _ := graph.KruskalMSF(g)
		size, sum := digest(labeling.Build(g.N, msf))
		check(t, "labeling", size, sum, pin{8192, 0x522f0d51e03e3353})
	})

	t.Run("baswana-sen", func(t *testing.T) {
		g := graph.GNM(600, 6000, 9)
		size, sum := digest(BaswanaSenReference(g, 3, 11))
		check(t, "original", size, sum, pin{4329, 0xb1f39c51833c4439})
		size, sum = digest(ModifiedBaswanaSenReference(g, 3, 0.3, 12))
		check(t, "modified", size, sum, pin{5891, 0x55fde7d1e8609023})
	})
}
