package sketch

import (
	"reflect"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/xrand"
)

// AddEdgeIncidence is the scalar oracle of the edge-incidence update: one
// PowModP fingerprint and one hash evaluation per endpoint — +1 if v is
// the smaller endpoint, -1 otherwise. The runtime path is
// EdgeUpdater.AddEdgeBoth; the tests below pin it against this.
func (f *Family) AddEdgeIncidence(s *Sketch, v int, e graph.Edge, n int) {
	idx := e.Key(n)
	if v == e.U {
		f.Add(s, idx, 1)
	} else {
		f.Add(s, idx, -1)
	}
}

// equalLevels compares two level prefixes cell for cell, the shorter one's
// missing levels standing for zeros — the representation invariant.
func equalLevels(a, b []oneSparse) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, c := range a {
		if i < len(b) && c != b[i] || i >= len(b) && c != (oneSparse{}) {
			return false
		}
	}
	return true
}

// emptyPrefix is the shallowest sketch of f: no level stored, every update
// has to grow it.
func emptyPrefix(f *Family, universe int64) *Sketch {
	return &Sketch{familyID: f.id, universe: universe}
}

// TestEdgeUpdaterMatchesAddEdgeIncidence pins the bit-identity of the
// table-based fingerprint path: for fuzzed edge sets, AddEdgeBoth must
// leave both endpoint sketches exactly as two AddEdgeIncidence calls do —
// the canonical-residue argument made executable.
func TestEdgeUpdaterMatchesAddEdgeIncidence(t *testing.T) {
	for _, n := range []int{2, 7, 64, 513} {
		f := NewFamily(int64(n)*int64(n), uint64(n)*0xABCD)
		universe := int64(n) * int64(n)
		up := f.NewEdgeUpdater(n)
		fastU, fastV := f.NewSketch(universe), f.NewSketch(universe)
		refU, refV := f.NewSketch(universe), f.NewSketch(universe)
		seed := uint64(1)
		for i := 0; i < 200; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			u := int(seed>>33) % n
			v := int(seed>>13) % n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := graph.Edge{U: u, V: v, W: 1}
			up.AddEdgeBoth(fastU, fastV, e)
			f.AddEdgeIncidence(refU, e.U, e, n)
			f.AddEdgeIncidence(refV, e.V, e, n)
		}
		if !reflect.DeepEqual(fastU.levels, refU.levels) || !reflect.DeepEqual(fastV.levels, refV.levels) {
			t.Fatalf("n=%d: updater sketches diverge from AddEdgeIncidence", n)
		}
	}
}

// TestEdgeUpdaterReferenceFallback pins the updater's power tables entry by
// entry against the scalar PowModP oracle — rowPow[u]·colPow[v] must be
// r^(u·n+v), the fingerprint Add computes — and one AddEdgeBoth against
// the two scalar updates it replaces.
func TestEdgeUpdaterReferenceFallback(t *testing.T) {
	n := 32
	universe := int64(n) * int64(n)
	f := NewFamily(universe, 99)
	up := f.NewEdgeUpdater(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got := xrand.MulModP(up.rowPow[u], up.colPow[v])
			if want := xrand.PowModP(f.r, uint64(u*n+v)); got != want {
				t.Fatalf("table power (%d,%d) = %d, PowModP says %d", u, v, got, want)
			}
		}
	}
	su, sv := emptyPrefix(f, universe), emptyPrefix(f, universe)
	ru, rv := f.NewSketch(universe), f.NewSketch(universe)
	e := graph.Edge{U: 3, V: 17, W: 1}
	up.AddEdgeBoth(su, sv, e)
	f.AddEdgeIncidence(ru, e.U, e, n)
	f.AddEdgeIncidence(rv, e.V, e, n)
	if !equalLevels(su.levels, ru.levels) || !equalLevels(sv.levels, rv.levels) {
		t.Fatal("AddEdgeBoth diverges from the scalar AddEdgeIncidence oracle")
	}
	if su.Depth() == 0 || su.Depth() != sv.Depth() {
		t.Fatalf("AddEdgeBoth left empty prefixes at depths %d and %d, want the update's depth in both", su.Depth(), sv.Depth())
	}
}

// TestMergeKernelMatchesScalar pins the unrolled merge against the scalar
// per-level loop across level counts straddling the 4-wide unroll boundary.
func TestMergeKernelMatchesScalar(t *testing.T) {
	for _, levels := range []int{2, 3, 4, 5, 8, 23} {
		f := NewFamilyLevels(levels, uint64(levels))
		universe := int64(1) << 20
		mkPair := func() (*Sketch, *Sketch) {
			a, b := f.NewSketch(universe), f.NewSketch(universe)
			seed := uint64(levels * 7)
			for i := 0; i < 64; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				idx := int64(seed % uint64(universe))
				val := 1
				if seed&(1<<62) != 0 {
					val = -1
				}
				if i%2 == 0 {
					f.Add(a, idx, val)
				} else {
					f.Add(b, idx, val)
				}
			}
			return a, b
		}
		fastA, fastB := mkPair()
		if err := fastA.Merge(fastB); err != nil {
			t.Fatal(err)
		}
		refA, refB := mkPair()
		for i := range refA.levels {
			refA.levels[i].merge(refB.levels[i])
		}
		if !reflect.DeepEqual(fastA.levels, refA.levels) {
			t.Fatalf("levels=%d: unrolled merge diverges from scalar merge", levels)
		}
	}
}

// TestSketchMergeZeroAllocs pins the merge hot path at zero allocations —
// the runtime counterpart of mergeLevels' zeroalloc marker — for equal
// depths and for a shallower prefix merged into a deeper one, the only
// direction an aggregation combine takes.
func TestSketchMergeZeroAllocs(t *testing.T) {
	f := NewFamilyLevels(23, 5)
	universe := int64(1) << 20
	a, b := f.NewSketch(universe), f.NewSketch(universe)
	f.Add(a, 12345, 1)
	f.Add(b, 54321, -1)
	shallow := emptyPrefix(f, universe)
	f.Add(shallow, 777, 1)
	if shallow.Depth() >= a.Depth() {
		t.Fatalf("prefix of one update is %d levels deep, the full sketch %d", shallow.Depth(), a.Depth())
	}
	for name, src := range map[string]*Sketch{"equal depths": b, "shallower into deeper": shallow} {
		if got := testing.AllocsPerRun(100, func() {
			if err := a.Merge(src); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Merge allocates %v per run, want 0", name, got)
		}
	}
}
