package prims

import (
	"fmt"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// walkShape is one machine's view of a route step: l pre-sorted items with
// keys spread evenly over [0, l·k), and the k-1 splitters that cut that
// range into k equal buckets.
type walkShape struct{ l, k int }

// walkShapes are the corners the perf workloads run: a wide cluster (16
// items against 2048 buckets — the walk must cost what the machine holds,
// not K), the square E33 MST cell (every item its own run), and a narrow
// one (256-item runs).
var walkShapes = []walkShape{{16, 2048}, {512, 512}, {16384, 64}}

func (sh walkShape) build() (items []kitem, sp []SortKey) {
	items = make([]kitem, sh.l)
	for i := range items {
		items[i] = kitem{key: SortKey{A: int64(i * sh.k)}, tag: i}
	}
	sp = make([]SortKey, sh.k-1)
	for j := range sp {
		sp[j] = SortKey{A: int64((j + 1) * sh.l)}
	}
	return items, sp
}

// BenchmarkWalkBuckets is the route-kernel rung of the layer ladder: one op
// walks one machine's items over its splitter list, at each of walkShapes.
func BenchmarkWalkBuckets(b *testing.B) {
	for _, sh := range walkShapes {
		b.Run(fmt.Sprintf("L=%d,K=%d", sh.l, sh.k), func(b *testing.B) {
			items, sp := sh.build()
			key := func(it kitem) SortKey { return it.key }
			routed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walkBuckets(items, sp, sh.k, key, func(_ int, run []kitem) { routed += len(run) })
			}
			if routed != b.N*sh.l {
				b.Fatalf("walk routed %d of %d items", routed, b.N*sh.l)
			}
		})
	}
}

// BenchmarkSort is the primitive above it: one op is one Sort of 16·K
// random edges, 16 per machine, on a default-capacity cluster of K small
// machines — local sort, sample and splitter rounds, route, re-sort — so
// ns/op over K is Sort's per-machine constant. Sort sorts its input in
// place, so every op starts from a fresh copy of the unsorted edges (inside
// the timer; the copy is a memmove of 384 bytes a machine).
func BenchmarkSort(b *testing.B) {
	for _, k := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			const per = 16
			cfg := mpc.Config{N: 4096, M: per * k, K: k, Seed: 1}
			rng := xrand.New(uint64(k))
			flat := make([]graph.Edge, per*k)
			for i := range flat {
				flat[i] = graph.Edge{U: int(rng.Uint64() % 4096), V: int(rng.Uint64() % 4096), W: int64(rng.Uint64() % (1 << 20))}
			}
			work := make([]graph.Edge, len(flat))
			data := make([][]graph.Edge, k)
			sortOnce := func(c *mpc.Cluster) {
				copy(work, flat)
				for i := range data {
					data[i] = work[i*per : (i+1)*per : (i+1)*per]
				}
				if _, err := Sort(c, data, EdgeWords, edgeKey); err != nil {
					b.Fatal(err)
				}
			}
			// The round budget must cover b.N sorts: a probe cluster counts
			// the rounds of one.
			probe, err := mpc.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sortOnce(probe)
			cfg.MaxRounds = probe.Stats().Rounds * b.N
			c, err := mpc.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sortOnce(c)
			}
		})
	}
}
