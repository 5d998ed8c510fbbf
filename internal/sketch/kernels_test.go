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
	a := f.NewArena(universe, 32)
	s := a.NewSketch(f)
	f.Add(s, 99, 1)
	a.Reset()
	s2 := a.NewSketch(f)
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
			sk := a.NewSketch(f)
			f.Add(sk, int64(i), 1)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("steady-state arena cycle allocates %v per run, want 0", got)
	}
}

// TestArenaSizedSlabsMatchNewSketch pins the counted sizing core.Connectivity
// relies on: one arena serves d·phases sketches of several same-shape
// families from exactly two slabs — one of sketches, one of level cells,
// each exactly as large as asked, so the allocation count does not depend on
// the sketch count — the sketches are bit-identical to Family.NewSketch
// ones under AddEdgeBoth, Merge and Query, and an arena sized for nothing (a
// machine with no edges) allocates no slab and still draws a sketch without
// panicking.
func TestArenaSizedSlabsMatchNewSketch(t *testing.T) {
	const n, d, phases, levels = 64, 9, 5, 11
	universe := int64(n) * int64(n)
	families := make([]*Family, phases)
	for p := range families {
		families[p] = NewFamilyLevels(levels, uint64(100+p))
	}
	fill := func(count int) *Arena {
		a := families[0].NewArena(universe, count)
		for j := 0; j < count; j++ {
			a.NewSketch(families[j%phases])
		}
		return a
	}
	a := fill(d * phases)
	if sk, lv := a.sketches.Cap(), a.levels.Cap(); sk != d*phases || lv != d*phases*levels {
		t.Fatalf("arena holds %d sketches and %d level cells, want exactly %d and %d", sk, lv, d*phases, d*phases*levels)
	}
	one := testing.AllocsPerRun(20, func() { fill(1) })
	many := testing.AllocsPerRun(20, func() { fill(d * phases) })
	if one != many {
		t.Errorf("filling a sized arena allocates %v times for 1 sketch, %v for %d: slabs are not exactly sized", one, many, d*phases)
	}

	rng := xrand.New(29)
	var edges []graph.Edge
	for j := 0; j < 40; j++ {
		u, v := int(rng.Uint64()%d), int(rng.Uint64()%d)
		if u != v {
			edges = append(edges, graph.NewEdge(u, v, 1))
		}
	}
	a = families[0].NewArena(universe, d*phases)
	for _, f := range families {
		up := f.NewEdgeUpdater(n)
		got, want := make([]*Sketch, d), make([]*Sketch, d)
		for v := range got {
			got[v], want[v] = a.NewSketch(f), f.NewSketch(universe)
		}
		for _, e := range edges {
			up.AddEdgeBoth(got[e.U], got[e.V], e)
			up.AddEdgeBoth(want[e.U], want[e.V], e)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("arena sketches diverge from NewSketch ones under AddEdgeBoth")
		}
		for v := 1; v < d/2; v++ { // the cut sketch of vertices 0..d/2-1
			if err := got[0].Merge(got[v]); err != nil {
				t.Fatal(err)
			}
			if err := want[0].Merge(want[v]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got[0], want[0]) {
			t.Fatal("arena sketches diverge from NewSketch ones under Merge")
		}
		gi, gv, gok := f.Query(got[0])
		wi, wv, wok := f.Query(want[0])
		if gi != wi || gv != wv || gok != wok {
			t.Fatalf("Query of the arena cut sketch = (%d, %d, %v), of the NewSketch one (%d, %d, %v)", gi, gv, gok, wi, wv, wok)
		}
	}

	var empty *Arena
	if got := testing.AllocsPerRun(20, func() { empty = families[0].NewArena(universe, 0) }); got > 1 {
		t.Errorf("an arena sized for no sketches allocates %v times, want only its header", got)
	}
	if empty.sketches.Cap() != 0 || empty.levels.Cap() != 0 {
		t.Error("an arena sized for no sketches allocated a slab")
	}
	if s := empty.NewSketch(families[0]); !s.IsZero() || len(s.levels) != levels {
		t.Error("a sketch drawn past an empty arena's size is not an empty sketch of the family")
	}
}
