package sketch

import (
	"cmp"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/xrand"
)

// prefixLevelCounts are the families the prefix tests run over: the
// minimum, one straddling the merge kernel's 4-wide unroll, Connectivity's
// count on the perf cells and one past it.
var prefixLevelCounts = []int{2, 5, 20, 26}

// A prefixPair is one sketch kept twice: as the prefix representation
// grows it from nothing, and as a Family.NewSketch full-width one.
type prefixPair struct{ prefix, full *Sketch }

// checkPair holds the representation invariant on one pair: the same cells
// with implied zeros, and the same answers from every reader.
func checkPair(t *testing.T, f *Family, p prefixPair, when string) {
	t.Helper()
	if !equalLevels(p.prefix.levels, p.full.levels) {
		t.Fatalf("%s: prefix %+v diverges from full-width %+v", when, p.prefix.levels, p.full.levels)
	}
	if p.prefix.Depth() > f.Levels() {
		t.Fatalf("%s: prefix is %d levels deep in a family of %d", when, p.prefix.Depth(), f.Levels())
	}
	if p.prefix.IsZero() != p.full.IsZero() {
		t.Fatalf("%s: IsZero %v on the prefix, %v full-width", when, p.prefix.IsZero(), p.full.IsZero())
	}
	pi, pv, pok := f.Query(p.prefix)
	fi, fv, fok := f.Query(p.full)
	if pi != fi || pv != fv || pok != fok {
		t.Fatalf("%s: Query (%d, %d, %v) on the prefix, (%d, %d, %v) full-width", when, pi, pv, pok, fi, fv, fok)
	}
	if c := p.prefix.Clone(); !equalLevels(c.levels, p.full.levels) || c.Depth() != p.prefix.Depth() {
		t.Fatalf("%s: Clone of the prefix diverges", when)
	}
}

// runPrefixOps drives a register file of sketch pairs with an op stream —
// byte 0 picks the family, then (op, a, b, x, y) records — and checks every
// pair after every op. Ops: a single Add; an AddEdgeBoth across two
// registers; a Merge of register a into b, either depth order; a combine
// that owns both operands (shallower into deeper, the deeper operand
// survives, the other register starts over); a Clone. An update or merge deeper than
// the destination's prefix must grow it: losing a cell shows as a
// divergence from the full-width twin.
func runPrefixOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	const n, regs = 64, 4
	universe := int64(n) * int64(n)
	f := NewFamilyLevels(prefixLevelCounts[int(data[0])%len(prefixLevelCounts)], uint64(data[0])+1)
	up := f.NewEdgeUpdater(n)
	fresh := func() prefixPair { return prefixPair{emptyPrefix(f, universe), f.NewSketch(universe)} }
	var r [regs]prefixPair
	for i := range r {
		r[i] = fresh()
	}
	merge := func(dst, src *Sketch) {
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for data = data[1:]; len(data) >= 5; data = data[5:] {
		a, b := int(data[1])%regs, int(data[2])%regs
		x, y := int(data[3]), int(data[4])
		switch data[0] % 5 {
		case 0:
			idx, val := int64(x*256+y)%universe, 1-2*(int(data[1])>>7)
			f.Add(r[a].prefix, idx, val)
			f.Add(r[a].full, idx, val)
		case 1:
			if u, v := x%n, y%n; u != v && a != b {
				e := graph.NewEdge(u, v, 1)
				up.AddEdgeBoth(r[a].prefix, r[b].prefix, e)
				up.AddEdgeBoth(r[a].full, r[b].full, e)
			}
		case 2:
			if a != b {
				merge(r[b].prefix, r[a].prefix)
				merge(r[b].full, r[a].full)
			}
		case 3:
			if a != b {
				deep, shallow := r[a].prefix, r[b].prefix
				if deep.Depth() < shallow.Depth() {
					deep, shallow = shallow, deep
				}
				depth := deep.Depth()
				merge(deep, shallow)
				if deep.Depth() != depth {
					t.Fatalf("merging depth %d into depth %d grew it to %d", shallow.Depth(), depth, deep.Depth())
				}
				merge(r[b].full, r[a].full)
				r[b].prefix = deep
				r[a] = fresh()
			}
		case 4:
			r[b] = prefixPair{r[a].prefix.Clone(), r[a].full.Clone()}
		}
		for i := range r {
			checkPair(t, f, r[i], "after an op")
		}
	}
}

// TestPrefixSketchMatchesFullWidth is the differential test of the
// representation invariant: a long random op stream on every family.
func TestPrefixSketchMatchesFullWidth(t *testing.T) {
	for fam := range prefixLevelCounts {
		rng := xrand.New(uint64(fam) + 7)
		data := []byte{byte(fam)}
		for i := 0; i < 5*2000; i++ {
			data = append(data, byte(rng.IntN(256)))
		}
		runPrefixOps(t, data)
	}
}

// FuzzPrefixSketch is the same check on fuzzed op streams; the committed
// corpus under testdata/fuzz holds one stream per family.
func FuzzPrefixSketch(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 7, 0, 1, 1, 0, 9, 2, 0, 1, 0, 0})  // 20 levels: two adds, merge r0 into r1
	f.Add([]byte{1, 1, 0, 1, 3, 17, 3, 0, 1, 0, 0, 4, 1, 2, 0, 0}) // 5 levels: an edge, the combine, a clone
	f.Fuzz(runPrefixOps)
}

// TestMergeGrowsShallowDestination pins the direction Connectivity never
// takes: merging a deeper sketch into a shallower one grows the destination
// to the deeper depth instead of truncating the sum.
func TestMergeGrowsShallowDestination(t *testing.T) {
	const universe = 1 << 12
	f := NewFamilyLevels(20, 3)
	deep := f.NewSketch(universe)
	for idx := int64(0); idx < 300; idx++ {
		f.Add(deep, idx, 1)
	}
	shallow := emptyPrefix(f, universe)
	if err := shallow.Merge(deep); err != nil {
		t.Fatal(err)
	}
	if shallow.Depth() != deep.Depth() || !equalLevels(shallow.levels, deep.levels) {
		t.Fatalf("merge into an empty prefix left depth %d, want the source's %d cell for cell", shallow.Depth(), deep.Depth())
	}
}

// TestAddLevelsPanicsPastPrefix pins the no-silent-truncation guard of the
// prepared-update apply: a sketch carved shallower than an update is a
// bug, and it panics rather than dropping the update's deeper cells.
func TestAddLevelsPanicsPastPrefix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an update deeper than the prefix was applied without a panic")
		}
	}()
	addLevels(make([]oneSparse, 2), 5, 1, 9, 3)
}

// machineEdges is an edge list over vertices [0, n): count distinct-endpoint
// edges, and their sorted distinct endpoints.
func machineEdges(n, count int, seed uint64) ([]graph.Edge, []int64) {
	rng := xrand.New(seed)
	var edges []graph.Edge
	seen := make([]bool, n)
	for len(edges) < count {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			edges = append(edges, graph.NewEdge(u, v, 1))
			seen[u], seen[v] = true, true
		}
	}
	var ends []int64
	for v, ok := range seen {
		if ok {
			ends = append(ends, int64(v))
		}
	}
	return edges, ends
}

// sortedRun is the two incidences of every edge sorted by vertex, as a Sort
// keyed by the vertex alone leaves them on one machine.
func sortedRun(edges []graph.Edge) []Incidence {
	var run []Incidence
	for _, e := range edges {
		run = append(run, Incidence{V: e.U, U: e.V}, Incidence{V: e.V, U: e.U})
	}
	slices.SortStableFunc(run, func(a, b Incidence) int { return cmp.Compare(a.V, b.V) })
	return run
}

// runMergedPartials is the oracle check of VertexSketches on one input:
// byte 0 picks the families and the machine count K ∈ [1, 8], then (u, v,
// machine) triples give an edge on 64 vertices and the machine holding it.
// Each machine's partial sketches are written with AddEdgeBoth into empty
// prefixes and summed with Merge, machine by machine — the aggregation the
// builder replaces; the builder's sketch of each (phase, vertex), from the
// sorted incidences, must equal that sum cell for cell and in Depth.
func runMergedPartials(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	const n, phases = 64, 3
	universe := int64(n) * int64(n)
	ups := make([]*EdgeUpdater, phases)
	for p := range ups {
		levels := prefixLevelCounts[(int(data[0])+p)%len(prefixLevelCounts)]
		ups[p] = NewFamilyLevels(levels, uint64(data[0])*phases+uint64(p)+1).NewEdgeUpdater(n)
	}
	held := make([][]graph.Edge, 1+int(data[0])%8)
	var all []graph.Edge
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		if u, v := int(data[0])%n, int(data[1])%n; u != v {
			e := graph.NewEdge(u, v, 1)
			i := int(data[2]) % len(held)
			held[i], all = append(held[i], e), append(all, e)
		}
	}
	run := sortedRun(all)
	got := VertexSketches(ups, run)
	var vs []int
	for j, in := range run {
		if j == 0 || in.V != run[j-1].V {
			vs = append(vs, in.V)
		}
	}
	if len(got) != phases*len(vs) {
		t.Fatalf("VertexSketches returned %d sketches for %d phases of %d vertices", len(got), phases, len(vs))
	}
	for p, up := range ups {
		merged := make([]*Sketch, n)
		for _, edges := range held {
			partial := make([]*Sketch, n)
			for _, e := range edges {
				for _, v := range []int{e.U, e.V} {
					if partial[v] == nil {
						partial[v] = emptyPrefix(up.f, universe)
					}
				}
				up.AddEdgeBoth(partial[e.U], partial[e.V], e)
			}
			for v, s := range partial {
				if s == nil {
					continue
				}
				if merged[v] == nil {
					merged[v] = emptyPrefix(up.f, universe)
				}
				if err := merged[v].Merge(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for j, v := range vs {
			s, want := &got[j*phases+p], merged[v]
			if s.familyID != up.f.id || s.universe != universe {
				t.Fatalf("phase %d vertex %d: sketch of family %d over %d, want %d over %d", p, v, s.familyID, s.universe, up.f.id, universe)
			}
			if s.Depth() != want.Depth() || !equalLevels(s.levels, want.levels) {
				t.Fatalf("phase %d vertex %d: built sketch (depth %d) diverges from the merged partials (depth %d)", p, v, s.Depth(), want.Depth())
			}
		}
	}
}

// TestVertexSketchesMatchMergedPartials runs the oracle check on random
// graphs and random edge partitions over every machine count.
func TestVertexSketchesMatchMergedPartials(t *testing.T) {
	for seed := 0; seed < 16; seed++ {
		rng := xrand.New(uint64(seed) + 11)
		data := []byte{byte(seed)}
		for i := 0; i < 3*(40+rng.IntN(400)); i++ {
			data = append(data, byte(rng.IntN(256)))
		}
		runMergedPartials(t, data)
	}
}

// FuzzVertexSketches is the same check on fuzzed graphs and partitions.
func FuzzVertexSketches(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 2, 3, 0, 2, 1, 5, 9, 2})   // K=4: a path, then a far edge
	f.Add([]byte{0, 7, 8, 0, 7, 9, 0, 7, 10, 0, 7, 11, 0}) // K=1: a star on one machine
	f.Fuzz(runMergedPartials)
}

// TestVertexSketchCellsMatchNewSketch pins the exact carve
// core.Connectivity builds on. The cells carved are Σ over (phase, vertex)
// of the deepest update the sketch receives — counted here from the hash
// alone — laid out back to back in one slice with every prefix
// capacity-clamped; and the sketches are bit-identical to Family.NewSketch
// ones fed the same edges through AddEdgeBoth, under Merge and Query too.
func TestVertexSketchCellsMatchNewSketch(t *testing.T) {
	const n, phases, levels = 64, 5, 11
	universe := int64(n) * int64(n)
	ups := make([]*EdgeUpdater, phases)
	for p := range ups {
		ups[p] = NewFamilyLevels(levels, uint64(100+p)).NewEdgeUpdater(n)
	}
	edges, ends := machineEdges(n, 40, 29)
	d := len(ends)
	got := VertexSketches(ups, sortedRun(edges))
	if len(got) != phases*d {
		t.Fatalf("VertexSketches returned %d sketches, want %d", len(got), phases*d)
	}

	cells := 0
	for p, up := range ups {
		f := up.f
		want := make([]*Sketch, n)
		deepest := make([]int, n)
		for v := range want {
			want[v] = f.NewSketch(universe)
		}
		for _, e := range edges {
			up.AddEdgeBoth(want[e.U], want[e.V], e)
			depth := f.depth(f.hash.Eval(uint64(e.Key(n))))
			deepest[e.U], deepest[e.V] = max(deepest[e.U], depth), max(deepest[e.V], depth)
		}
		for j, v := range ends {
			s := &got[j*phases+p]
			if s.familyID != f.id || s.universe != universe {
				t.Fatalf("phase %d vertex %d: sketch of family %d over %d, want %d over %d", p, v, s.familyID, s.universe, f.id, universe)
			}
			if s.Depth() != deepest[v] || cap(s.levels) != s.Depth() {
				t.Fatalf("phase %d vertex %d: depth %d (cap %d), want its deepest update's %d, clamped", p, v, s.Depth(), cap(s.levels), deepest[v])
			}
			if !equalLevels(s.levels, want[v].levels) {
				t.Fatalf("phase %d vertex %d: carved sketch diverges from the NewSketch one under AddEdgeBoth", p, v)
			}
			cells += s.Depth()
		}
		// The cut sketch of the first half of the vertices.
		sum, wantSum := &got[p], want[ends[0]]
		for j := 1; j < d/2; j++ {
			if err := sum.Merge(&got[j*phases+p]); err != nil {
				t.Fatal(err)
			}
			if err := wantSum.Merge(want[ends[j]]); err != nil {
				t.Fatal(err)
			}
		}
		checkPair(t, f, prefixPair{sum, wantSum}, "cut sketch")
	}
	if full := phases * d * levels; cells*2 > full {
		t.Errorf("%d cells carved for %d sketches of %d levels: the prefixes are not short", cells, phases*d, levels)
	}

	depths := []int32{3, 0, 1, 4}
	sks, slab := carve(universe, depths)
	if len(slab) != 8 {
		t.Fatalf("carve made %d cells for depths %v, want their sum", len(slab), depths)
	}
	off := 0
	for k, depth := range depths {
		if sks[k].Depth() != int(depth) || cap(sks[k].levels) != int(depth) {
			t.Fatalf("carved sketch %d: depth %d cap %d, want %d", k, sks[k].Depth(), cap(sks[k].levels), depth)
		}
		if depth > 0 && &sks[k].levels[0] != &slab[off] {
			t.Fatalf("carved sketch %d does not start at cell %d of the slab", k, off)
		}
		off += int(depth)
	}
}

// TestVertexSketchesAllocsPerMachine pins what a machine's build
// allocates: the headers, the cells and the two scratch slices, whatever
// its run holds, and nothing for an empty run.
func TestVertexSketchesAllocsPerMachine(t *testing.T) {
	const n, phases = 256, 7
	ups := make([]*EdgeUpdater, phases)
	for p := range ups {
		ups[p] = NewFamilyLevels(14, uint64(p+1)).NewEdgeUpdater(n)
	}
	for _, count := range []int{1, 30, 900} {
		edges, _ := machineEdges(n, count, uint64(count))
		run := sortedRun(edges)
		if got := testing.AllocsPerRun(10, func() { VertexSketches(ups, run) }); got != 4 {
			t.Errorf("VertexSketches over %d incidences allocates %v times, want 4 whatever the count", len(run), got)
		}
	}
	if got := testing.AllocsPerRun(10, func() { VertexSketches(ups, nil) }); got != 0 {
		t.Errorf("VertexSketches of an empty run allocates %v times, want 0", got)
	}
}

// TestVertexSketchesPanicsOnUnsortedRun pins the builder's guard: a run not
// sorted by vertex would split a vertex's sketch in two, so it panics.
func TestVertexSketchesPanicsOnUnsortedRun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an unsorted run was built without a panic")
		}
	}()
	up := NewFamilyLevels(5, 1).NewEdgeUpdater(8)
	VertexSketches([]*EdgeUpdater{up}, []Incidence{{V: 3, U: 1}, {V: 1, U: 3}})
}
