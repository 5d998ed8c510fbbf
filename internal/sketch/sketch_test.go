package sketch

import (
	"testing"
	"testing/quick"

	"hetmpc/internal/graph"
	"hetmpc/internal/xrand"
)

func TestSingleItemRecovery(t *testing.T) {
	f := NewFamily(1000, 42)
	for idx := int64(0); idx < 100; idx++ {
		s := f.NewSketch(1000)
		f.Add(s, idx, 1)
		got, val, ok := f.Query(s)
		if !ok || got != idx || val != 1 {
			t.Fatalf("recovery of single +%d failed: %d %d %v", idx, got, val, ok)
		}
		s2 := f.NewSketch(1000)
		f.Add(s2, idx, -1)
		got, val, ok = f.Query(s2)
		if !ok || got != idx || val != -1 {
			t.Fatalf("recovery of single -%d failed: %d %d %v", idx, got, val, ok)
		}
	}
}

func TestCancellation(t *testing.T) {
	f := NewFamily(1<<20, 7)
	s := f.NewSketch(1 << 20)
	for i := int64(0); i < 200; i++ {
		f.Add(s, i*31%1000, 1)
	}
	for i := int64(0); i < 200; i++ {
		f.Add(s, i*31%1000, -1)
	}
	if !s.IsZero() {
		t.Fatal("fully cancelled sketch not zero")
	}
	if _, _, ok := f.Query(s); ok {
		t.Fatal("query succeeded on zero vector")
	}
}

func TestQueryReturnsPresentIndex(t *testing.T) {
	// Over many random sets, a successful query must return an index that is
	// actually in the set (no false recoveries), and the success rate must be
	// substantial.
	const universe = 1 << 16
	succ, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		f := NewFamily(universe, uint64(trial)+1)
		s := f.NewSketch(universe)
		rng := xrand.New(uint64(trial) + 999)
		present := map[int64]bool{}
		size := 1 + rng.IntN(500)
		for len(present) < size {
			idx := rng.Int64N(universe)
			if !present[idx] {
				present[idx] = true
				f.Add(s, idx, 1)
			}
		}
		total++
		if idx, val, ok := f.Query(s); ok {
			if !present[idx] || val != 1 {
				t.Fatalf("trial %d: recovered absent index %d (val %d)", trial, idx, val)
			}
			succ++
		}
	}
	if succ*100 < total*50 {
		t.Fatalf("success rate too low: %d/%d", succ, total)
	}
}

func TestLinearityMergeEqualsDirect(t *testing.T) {
	const universe = 4096
	f := NewFamily(universe, 13)
	a := f.NewSketch(universe)
	b := f.NewSketch(universe)
	direct := f.NewSketch(universe)
	rng := xrand.New(55)
	for i := 0; i < 300; i++ {
		idx := rng.Int64N(universe)
		val := 1
		if rng.IntN(2) == 0 {
			val = -1
		}
		if rng.IntN(2) == 0 {
			f.Add(a, idx, val)
		} else {
			f.Add(b, idx, val)
		}
		f.Add(direct, idx, val)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for ℓ := range a.levels {
		if a.levels[ℓ] != direct.levels[ℓ] {
			t.Fatalf("level %d differs after merge", ℓ)
		}
	}
}

func TestMergeRejectsForeignFamily(t *testing.T) {
	f1 := NewFamily(100, 1)
	f2 := NewFamily(100, 2)
	a := f1.NewSketch(100)
	b := f2.NewSketch(100)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across families must fail")
	}
}

func TestEdgeIncidenceCancelsInternalEdges(t *testing.T) {
	// Sum the incidence sketches of a component: internal edges cancel, the
	// query returns a boundary edge. Graph: triangle {0,1,2} plus edge 2-3.
	n := 4
	edges := []graph.Edge{
		graph.NewEdge(0, 1, 1), graph.NewEdge(1, 2, 1), graph.NewEdge(0, 2, 1),
		graph.NewEdge(2, 3, 1),
	}
	universe := int64(n) * int64(n)
	f := NewFamily(universe, 77)
	sk := make([]*Sketch, n)
	for v := range sk {
		sk[v] = f.NewSketch(universe)
	}
	for _, e := range edges {
		f.AddEdgeIncidence(sk[e.U], e.U, e, n)
		f.AddEdgeIncidence(sk[e.V], e.V, e, n)
	}
	// S = {0,1,2}: only boundary edge is 2-3.
	sum := f.NewSketch(universe)
	for _, v := range []int{0, 1, 2} {
		if err := sum.Merge(sk[v]); err != nil {
			t.Fatal(err)
		}
	}
	idx, _, ok := f.Query(sum)
	if !ok {
		t.Fatal("boundary query failed")
	}
	u, v := DecodeEdgeKey(idx, n)
	if u != 2 || v != 3 {
		t.Fatalf("boundary edge recovered as %d-%d, want 2-3", u, v)
	}
	// S = all vertices: no boundary; sum must be zero.
	if err := sum.Merge(sk[3]); err != nil {
		t.Fatal(err)
	}
	if !sum.IsZero() {
		t.Fatal("whole-graph incidence sum not zero")
	}
}

func TestWordsAccounting(t *testing.T) {
	f := NewFamily(1<<10, 3)
	if f.Words() != 2+3*f.Levels() {
		t.Fatalf("Words = %d", f.Words())
	}
}

func TestQuickNeverRecoversAbsent(t *testing.T) {
	prop := func(seed uint64, raw []uint16) bool {
		const universe = 1 << 12
		f := NewFamily(universe, seed)
		s := f.NewSketch(universe)
		present := map[int64]int{}
		for _, r := range raw {
			idx := int64(r) % universe
			present[idx]++
			f.Add(s, idx, 1)
		}
		idx, _, ok := f.Query(s)
		if !ok {
			return true
		}
		return present[idx] > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
