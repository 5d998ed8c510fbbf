package sketch

import (
	"fmt"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/xrand"
)

// nonZeroPrefix is the length of the sketch's non-zero level prefix.
func nonZeroPrefix(s *Sketch) int {
	d := len(s.levels)
	for d > 0 && s.levels[d-1] == (oneSparse{}) {
		d--
	}
	return d
}

// mergeSource returns a sketch of f whose updates reach exactly depth
// levels, stored as that prefix.
func mergeSource(f *Family, universe int64, depth int) *Sketch {
	src := f.NewSketch(universe)
	for idx := int64(0); nonZeroPrefix(src) < depth; idx++ {
		probe := f.NewSketch(universe)
		f.Add(probe, idx, 1)
		if nonZeroPrefix(probe) <= depth {
			f.Add(src, idx, 1)
		}
	}
	src.levels = src.levels[:depth]
	return src
}

// BenchmarkMerge is the combine rung of the layer ladder: one op merges a
// sketch whose updates reach `depth` levels into a 20-level accumulator —
// depth 2 is a small machine's share of a vertex, 5 a vertex's sum, 20 the
// full width.
func BenchmarkMerge(b *testing.B) {
	const levels, universe = 20, int64(1) << 24
	f := NewFamilyLevels(levels, 11)
	for _, depth := range []int{2, 5, levels} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			src, dst := mergeSource(f, universe, depth), f.NewSketch(universe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEdgeUpdate is the update rung: one op applies one edge to its
// two endpoint sketches through AddEdgeBoth — a table product, one hash
// evaluation and the cells of the update's depth, twice.
func BenchmarkEdgeUpdate(b *testing.B) {
	const n, levels = 4096, 20
	universe := int64(n) * int64(n)
	f := NewFamilyLevels(levels, 11)
	up := f.NewEdgeUpdater(n)
	su, sv := f.NewSketch(universe), f.NewSketch(universe)
	rng := xrand.New(3)
	edges := make([]graph.Edge, 1024)
	for i := range edges {
		u := rng.IntN(n - 1)
		edges[i] = graph.NewEdge(u, u+1+rng.IntN(n-1-u), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up.AddEdgeBoth(su, sv, edges[i%len(edges)])
	}
}
