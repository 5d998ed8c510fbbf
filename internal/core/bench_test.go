package core

import (
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// BenchmarkConnectivity is the core rung of the layer ladder at the perf
// `scale` workload's Connectivity cell (n=4096, m=16384, K=512).
func BenchmarkConnectivity(b *testing.B) {
	g := graph.GNM(4096, 16384, 7)
	b.Run("K=512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: 512, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Connectivity(c, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
