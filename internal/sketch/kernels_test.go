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
	su, sv := f.NewSketch(universe), f.NewSketch(universe)
	ru, rv := f.NewSketch(universe), f.NewSketch(universe)
	e := graph.Edge{U: 3, V: 17, W: 1}
	up.AddEdgeBoth(su, sv, e)
	f.AddEdgeIncidence(ru, e.U, e, n)
	f.AddEdgeIncidence(rv, e.V, e, n)
	if !reflect.DeepEqual(su.levels, ru.levels) || !reflect.DeepEqual(sv.levels, rv.levels) {
		t.Fatal("AddEdgeBoth diverges from the scalar AddEdgeIncidence oracle")
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
// the runtime counterpart of mergeLevels' zeroalloc marker.
func TestSketchMergeZeroAllocs(t *testing.T) {
	f := NewFamilyLevels(23, 5)
	universe := int64(1) << 20
	a, b := f.NewSketch(universe), f.NewSketch(universe)
	f.Add(a, 12345, 1)
	f.Add(b, 54321, -1)
	if got := testing.AllocsPerRun(100, func() {
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Merge allocates %v per run, want 0", got)
	}
}

// TestArenaResetReusesSketchMemory verifies the sketch arena's Reset
// contract: after a Reset, NewSketch hands back the same slab memory with
// fully zeroed levels, and steady-state cycles allocate nothing.
func TestArenaResetReusesSketchMemory(t *testing.T) {
	universe := int64(1) << 12
	f := NewFamily(universe, 7)
	a := f.NewArena(universe)
	s := a.NewSketch()
	f.Add(s, 99, 1)
	a.Reset()
	s2 := a.NewSketch()
	if !s2.IsZero() {
		t.Fatal("post-Reset sketch is not zero")
	}
	for i := range s2.levels {
		if s2.levels[i] != (oneSparse{}) {
			t.Fatalf("post-Reset level %d holds stale state %+v", i, s2.levels[i])
		}
	}
	cycle := func() {
		a.Reset()
		for i := 0; i < 16; i++ {
			sk := a.NewSketch()
			f.Add(sk, int64(i), 1)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("steady-state arena cycle allocates %v per run, want 0", got)
	}
}
