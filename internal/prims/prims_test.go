package prims

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

func newCluster(t *testing.T, n, m int, noLarge bool) *mpc.Cluster {
	t.Helper()
	c, err := mpc.New(mpc.Config{N: n, M: m, Seed: 42, NoLarge: noLarge})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainSpans(t *testing.T) {
	b := func(first, last int64) boundsReport {
		return boundsReport{First: first, Last: last, NonEmpty: true}
	}
	empty := boundsReport{}
	cases := []struct {
		name   string
		bounds []boundsReport
		want   []span
	}{
		{"disjoint", []boundsReport{b(1, 3), b(4, 6), b(7, 9)}, nil},
		{"one-span", []boundsReport{b(1, 5), b(5, 9)}, []span{{5, 0, 1}}},
		{"long-span", []boundsReport{b(1, 5), b(5, 5), b(5, 9)}, []span{{5, 0, 2}}},
		{"bridged-empty", []boundsReport{b(1, 5), empty, b(5, 9)}, []span{{5, 0, 2}}},
		{"not-bridged", []boundsReport{b(1, 5), empty, b(6, 9)}, nil},
		{"two-spans", []boundsReport{b(1, 2), b(2, 7), b(7, 9)}, []span{{2, 0, 1}, {7, 1, 2}}},
		{"back-to-back", []boundsReport{b(2, 2), b(2, 7), b(7, 7), b(7, 8)}, []span{{2, 0, 1}, {7, 1, 3}}},
		{"all-one-key", []boundsReport{b(3, 3), b(3, 3), b(3, 3)}, []span{{3, 0, 2}}},
	}
	for _, tc := range cases {
		got := chainSpans(tc.bounds)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: got %v want %v", tc.name, got, tc.want)
			}
		}
	}
}

func TestTreeHelpers(t *testing.T) {
	if d := treeDepth(1, 4); d != 0 {
		t.Fatalf("depth(1) = %d", d)
	}
	if d := treeDepth(5, 4); d != 1 {
		t.Fatalf("depth(5,b=4) = %d", d)
	}
	if d := treeDepth(6, 4); d != 2 {
		t.Fatalf("depth(6,b=4) = %d", d)
	}
	// Heap arithmetic consistency: the child ranges partition 1..size-1,
	// and the parent of every child is the sender, one level up.
	for _, tc := range []struct{ b, size int }{{3, 60}, {2, 2}, {7, 1}, {1 << 20, 60}} {
		next := 1
		for p := 0; p < tc.size; p++ {
			lo, hi := childRange(p, tc.b, tc.size)
			if lo != min(next, tc.size) || hi < lo || hi > tc.size {
				t.Fatalf("b=%d size=%d: children(%d) = [%d,%d), want start %d", tc.b, tc.size, p, lo, hi, next)
			}
			for ch := lo; ch < hi; ch++ {
				if (ch-1)/tc.b != p { // the heap parent of position ch
					t.Fatalf("b=%d: parent(children(%d)) mismatch", tc.b, p)
				}
				if posDepth(ch, tc.b) != posDepth(p, tc.b)+1 {
					t.Fatalf("b=%d: depth mismatch for %d->%d", tc.b, p, ch)
				}
			}
			next = max(next, hi)
		}
		if next != max(tc.size, 1) {
			t.Fatalf("b=%d size=%d: children cover 1..%d", tc.b, tc.size, next-1)
		}
	}
}

func testSortRoundTrip(t *testing.T, noLarge bool) {
	t.Helper()
	c := newCluster(t, 256, 2048, noLarge)
	rng := xrand.New(7)
	data := make([][]int64, c.K())
	var all []int64
	for i := range data {
		n := rng.IntN(40)
		for j := 0; j < n; j++ {
			v := rng.Int64N(10000)
			data[i] = append(data[i], v)
			all = append(all, v)
		}
	}
	sorted, err := Sort(c, data, 1, func(v int64) SortKey { return SortKey{A: v} })
	if err != nil {
		t.Fatal(err)
	}
	if !IsGloballySorted(sorted, func(v int64) SortKey { return SortKey{A: v} }) {
		t.Fatal("not globally sorted")
	}
	got := Flatten(sorted)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(got) != len(all) {
		t.Fatalf("lost items: %d vs %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("item %d: %d != %d", i, got[i], all[i])
		}
	}
	if c.Rounds() > 20 {
		t.Fatalf("sort used %d rounds, want O(1)", c.Rounds())
	}
}

func TestSortWithLarge(t *testing.T) { testSortRoundTrip(t, false) }
func TestSortSublinear(t *testing.T) { testSortRoundTrip(t, true) }

func TestSortSkewedAndEmpty(t *testing.T) {
	c := newCluster(t, 256, 1024, false)
	data := make([][]int64, c.K())
	// All items on one machine, many duplicates.
	for j := 0; j < 500; j++ {
		data[3] = append(data[3], int64(j%7))
	}
	sorted, err := Sort(c, data, 1, func(v int64) SortKey { return SortKey{A: v} })
	if err != nil {
		t.Fatal(err)
	}
	if !IsGloballySorted(sorted, func(v int64) SortKey { return SortKey{A: v} }) {
		t.Fatal("not sorted")
	}
	if CountItems(sorted) != 500 {
		t.Fatalf("items lost: %d", CountItems(sorted))
	}
	// Fully empty input.
	c2 := newCluster(t, 64, 256, false)
	empty := make([][]int64, c2.K())
	sorted2, err := Sort(c2, empty, 1, func(v int64) SortKey { return SortKey{A: v} })
	if err != nil {
		t.Fatal(err)
	}
	if CountItems(sorted2) != 0 {
		t.Fatal("phantom items")
	}
}

func TestBroadcastValueDirectAndTree(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 512, 4096, noLarge)
		vals, err := BroadcastValue(c, int64(777), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v != 777 {
				t.Fatalf("noLarge=%v machine %d got %d", noLarge, i, v)
			}
		}
	}
	// Force the tree path with a huge payload word count.
	c := newCluster(t, 512, 4096, true)
	payload := c.SmallCap() / 3 // K*payload >> smallCap forces the tree
	vals, err := BroadcastValue(c, int64(55), payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 55 {
			t.Fatal("tree broadcast corrupted value")
		}
	}
}

// wide is a 40-word value: on a small-CSmall cluster it pushes the tree
// branching below K/2, so every range tree is at least two levels deep.
type wide [40]int64

// TestDeepTrees drives both tree walkers — BroadcastValue's tree and
// PlanBroadcast's down-tree — past depth 1, with an AggregateByKey of the
// same wide values between them, and compares the results with the same
// calls on a default-capacity cluster, where every tree is one level, and
// the broadcast's answers with the sequential oracle.
func TestDeepTrees(t *testing.T) {
	const k, vwords = 64, len(wide{})
	for _, noLarge := range []bool{false, true} {
		run := func(csmall, clarge float64, wantDeep bool) (bcast []wide, agg map[int64]wide, seg Answers[wide]) {
			c, err := mpc.New(mpc.Config{N: 256, M: 2048, K: k, CSmall: csmall, CLarge: clarge, Seed: 42, NoLarge: noLarge})
			if err != nil {
				t.Fatal(err)
			}
			// Deep means both walkers are: the branching is below K/2, and
			// BroadcastValue's direct send does not fit the coordinator.
			b := branching(c, vwords+1)
			deep := b < k/2 && treeDepth(k, b) >= 2 && k*(vwords+1) > coordCap(c)/2
			if deep != wantDeep {
				t.Fatalf("CSmall=%v: branching %d depth %d coordinator cap %d, want deep=%v", csmall, b, treeDepth(k, b), coordCap(c), wantDeep)
			}
			// A cold key per machine plus one hot key. Every machine
			// requests the hot key, so its sorted run of requests spans the
			// whole cluster and the down-tree carries its value two levels.
			// Only every fourth machine holds a hot partial to aggregate:
			// Sort keys partials by key alone, so all of a key's partials
			// land on one machine and must fit it.
			items := make([][]KV[wide], k)
			needs := make([][]int64, k)
			values := make([][]KV[wide], k)
			for i := range items {
				items[i] = []KV[wide]{{K: int64(100 + i), V: wide{int64(i)}}}
				if i%4 == 0 {
					items[i] = append(items[i], KV[wide]{K: 9, V: wide{1, int64(i)}})
				}
				needs[i] = []int64{9, int64(100 + (i+1)%k)}
				values[i] = []KV[wide]{{K: int64(100 + i), V: wide{int64(i), 5}}}
			}
			values[k-1] = append(values[k-1], KV[wide]{K: 9, V: wide{900}})
			if bcast, err = BroadcastValue(c, wide{55}, vwords+1); err != nil {
				t.Fatal(err)
			}
			roots, _, err := AggregateByKey(c, items, vwords, func(a, b wide) wide {
				a[0] += b[0]
				a[1] += b[1]
				return a
			}, false)
			if err != nil {
				t.Fatal(err)
			}
			agg = map[int64]wide{}
			for i := range roots {
				for _, kv := range roots[i] {
					if _, dup := agg[kv.K]; dup {
						t.Fatalf("key %d finalized on two machines", kv.K)
					}
					agg[kv.K] = kv.V
				}
			}
			p, err := NewPlan(c, needs)
			if err != nil {
				t.Fatal(err)
			}
			// The hot key's span must outgrow one level of the tree.
			if hot := p.spans[2*p.root(9)]; wantDeep && (hot.Key != 9 || hot.B-hot.A <= b) {
				t.Fatalf("CSmall=%v: the hot key's span %v fits one level of branching %d", csmall, hot, b)
			}
			if seg, err = PlanBroadcast(c, p, atRoots(p, k, values), nil, vwords); err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, fmt.Sprintf("noLarge=%v CSmall=%v", noLarge, csmall), seg, needs, oracle(needs, Flatten(values)))
			return bcast, agg, seg
		}
		deepB, deepA, deepS := run(0.1, 0.027, true)
		flatB, flatA, _ := run(0, 0, false)
		if !reflect.DeepEqual(deepB, flatB) || deepB[k-1] != (wide{55}) {
			t.Fatalf("noLarge=%v: deep BroadcastValue diverges", noLarge)
		}
		if !reflect.DeepEqual(deepA, flatA) || deepA[9] != (wide{k / 4, k * (k/4 - 1) / 2}) {
			t.Fatalf("noLarge=%v: deep AggregateByKey diverges: hot key %v", noLarge, deepA[9])
		}
		hot, okHot := deepS.Slot(0, 0) // machine 0 needs {9, 101}
		if _, okCold := deepS.Slot(0, 1); hot != (wide{900}) || !okHot || !okCold {
			t.Fatalf("noLarge=%v: deep PlanBroadcast answers machine 0's hot key with %v, %v, its cold key %v", noLarge, hot, okHot, okCold)
		}
	}
}

// TestTreeFanoutAllocIndependentOfBranching pins that a tree level costs
// its children, not the branching factor: the same multi-machine-span
// PlanBroadcast on two clusters that differ only in CSmall — so only in
// branching, depth 1 in both — allocates the same volume.
func TestTreeFanoutAllocIndependentOfBranching(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are nondeterministic under the race detector")
	}
	alloc := func(csmall float64) uint64 {
		c, err := mpc.New(mpc.Config{N: 256, M: 2048, CSmall: csmall, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		k := c.K()
		if d := treeDepth(k, branching(c, 2)); d != 1 {
			t.Fatalf("CSmall=%v: depth %d, want 1", csmall, d)
		}
		needs := make([][]int64, k)
		for i := range needs {
			needs[i] = []int64{7}
		}
		p, err := NewPlan(c, needs)
		if err != nil {
			t.Fatal(err)
		}
		values := atRoots(p, k, [][]KV[int64]{{{K: 7, V: 700}}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := PlanBroadcast(c, p, values, nil, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("CSmall=%v: %v", csmall, err)
		}
		sameAnswers(t, fmt.Sprintf("CSmall=%v", csmall), got, needs, oracle(needs, Flatten(values)))
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(6) // warm the sort kernels' pools
	lo, hi := alloc(6), alloc(600)
	if ratio := float64(hi) / float64(lo); ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("PlanBroadcast allocates %d B at CSmall=6, %d B at CSmall=600 (ratio %.2f): fan-out scales with branching", lo, hi, ratio)
	}
}

func TestGatherScatterSum(t *testing.T) {
	c := newCluster(t, 256, 1024, false)
	data := make([][]int64, c.K())
	want := int64(0)
	for i := range data {
		data[i] = []int64{int64(i), int64(i * 2)}
		want += int64(i) + int64(i*2)
	}
	all, err := GatherToLarge(c, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, v := range all {
		got += v
	}
	if got != want {
		t.Fatalf("gather sum %d want %d", got, want)
	}
	// Scatter back.
	back, err := ScatterFromLarge(c, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if len(back[i]) != 2 || back[i][0] != data[i][0] {
			t.Fatalf("scatter mismatch at %d", i)
		}
	}
	counts := make([]int64, c.K())
	for i := range counts {
		counts[i] = 2
	}
	sum, err := SumToLarge(c, counts)
	if err != nil {
		t.Fatal(err)
	}
	if sum != int64(2*c.K()) {
		t.Fatalf("SumToLarge = %d", sum)
	}
}

func TestMaxAll(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 1024, noLarge)
		k := c.K()
		cases := map[string]struct {
			val  func(i int) int64
			want int64
		}{
			"positive":     {func(i int) int64 { return int64(i) }, int64(k - 1)},
			"all-negative": {func(i int) int64 { return int64(-5 - i) }, -5},
			"mixed-sign":   {func(i int) int64 { return int64(i%7 - 3) }, 3},
			"max-first":    {func(i int) int64 { return int64(-i) }, 0},
		}
		for name, tc := range cases {
			vals := make([]int64, k)
			for i := range vals {
				vals[i] = tc.val(i)
			}
			got, err := MaxAll(c, vals)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("noLarge=%v %s: MaxAll = %d, want %d", noLarge, name, got, tc.want)
			}
		}
		// SumAll shares the reduce: zero-seeded or first-seeded, same sum.
		ones := make([]int64, k)
		for i := range ones {
			ones[i] = -1
		}
		if got, err := SumAll(c, ones); err != nil || got != int64(-k) {
			t.Errorf("noLarge=%v: SumAll = %d, %v; want %d", noLarge, got, err, -k)
		}
	}
}

func TestBroadcastSeedShared(t *testing.T) {
	c := newCluster(t, 128, 512, false)
	s1, err := BroadcastSeed(c)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BroadcastSeed(c)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("seeds should differ between calls")
	}
}

func TestAggregateByKeySums(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		rng := xrand.New(3)
		items := make([][]KV[int64], c.K())
		want := map[int64]int64{}
		for i := range items {
			for j := 0; j < 30; j++ {
				k := rng.Int64N(50) // few keys => a partial of every key on every machine
				v := rng.Int64N(100)
				items[i] = append(items[i], KV[int64]{K: k, V: v})
				want[k] += v
			}
		}
		roots, atLarge, err := AggregateByKey(c, items, 1,
			func(a, b int64) int64 { return a + b }, !noLarge)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]int64{}
		for i := range roots {
			for _, kv := range roots[i] {
				if _, dup := got[kv.K]; dup {
					t.Fatalf("key %d finalized on two machines", kv.K)
				}
				got[kv.K] = kv.V
			}
		}
		if len(got) != len(want) {
			t.Fatalf("noLarge=%v: %d keys, want %d", noLarge, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("noLarge=%v key %d: got %d want %d", noLarge, k, got[k], v)
			}
		}
		if !noLarge {
			for k, v := range want {
				if atLarge[k] != v {
					t.Fatalf("atLarge key %d: got %d want %d", k, atLarge[k], v)
				}
			}
		}
	}
}

func TestAggregateByKeyMin(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	items := make([][]KV[int64], c.K())
	// One hot key spread across every machine; min should win.
	for i := range items {
		items[i] = append(items[i], KV[int64]{K: 9, V: int64(1000 - i)})
	}
	_, atLarge, err := AggregateByKey(c, items, 1,
		func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1000 - (c.K() - 1))
	if atLarge[9] != want {
		t.Fatalf("min = %d, want %d", atLarge[9], want)
	}
}

// TestDisseminateFromLarge: every request is answered as the sequential
// oracle answers it, keys with no value included.
func TestDisseminateFromLarge(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	values := map[int64]int64{}
	for k := int64(0); k < 200; k++ {
		values[k] = k * 10
	}
	rng := xrand.New(5)
	needs := make([][]int64, c.K())
	for i := range needs {
		for j := 0; j < 20; j++ {
			needs[i] = append(needs[i], rng.Int64N(220)) // some keys have no value
		}
	}
	needs, _ = DistinctSlots(needs)
	got, err := DisseminateFromLarge(c, needs, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "FromLarge", got, needs, oracle(needs, SortedKVs(values)))
}

// TestPlanBroadcastDistributedValues: a value held by a small machine — its
// key's root, with no large-machine source — reaches every requester of the
// hot key, which every machine needs.
func TestPlanBroadcastDistributedValues(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		needs := make([][]int64, c.K())
		for i := range needs {
			needs[i] = []int64{7}
		}
		p, err := NewPlan(c, needs)
		if err != nil {
			t.Fatal(err)
		}
		values := atRoots(p, c.K(), [][]KV[int64]{{{K: 7, V: 700}}})
		got, err := PlanBroadcast(c, p, values, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("noLarge=%v", noLarge), got, needs, oracle(needs, Flatten(values)))
	}
}

func TestArrangeAndCollectBudget(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	g := graph.GNMWeighted(100, 600, 9)
	// Directed duplication sorted by (source, weight) — the §3 arrangement.
	dir := make([][]graph.Edge, c.K())
	for j, e := range g.Edges {
		m := j % c.K()
		dir[m] = append(dir[m], e)
		dir[(j+1)%c.K()] = append(dir[(j+1)%c.K()], graph.Edge{U: e.V, V: e.U, W: e.W})
	}
	sortKey := func(e graph.Edge) SortKey { return SortKey{A: int64(e.U), B: e.W, C: int64(e.V)} }
	arr, err := Arrange(c, dir, sortKey, EdgeWords)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees from the run index must match the real degrees.
	deg := g.Degrees()
	for v := 0; v < g.N; v++ {
		if got := arr.Degree(int64(v)); got != deg[v] {
			t.Fatalf("degree of %d: got %d want %d", v, got, deg[v])
		}
	}
	// Collect the 3 lightest out-edges of every vertex.
	collected, err := arr.CollectBudget(c, func(key int64) int { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Adj()
	for v := 0; v < g.N; v++ {
		items := collected[int64(v)]
		wantN := 3
		if deg[v] < 3 {
			wantN = deg[v]
		}
		if len(items) != wantN {
			t.Fatalf("vertex %d: collected %d, want %d", v, len(items), wantN)
		}
		// They must be the lightest.
		ws := make([]int64, 0, len(adj[v]))
		for _, h := range adj[v] {
			ws = append(ws, h.W)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for x, it := range items {
			if it.W != ws[x] {
				t.Fatalf("vertex %d item %d: weight %d want %d", v, x, it.W, ws[x])
			}
			if it.U != v {
				t.Fatalf("vertex %d: collected foreign edge %v", v, it)
			}
		}
	}
}

// TestArrangeKeysAscendUnsorted: Arrange does not sort the key list it
// builds. The run reports arrive in machine order over globally sorted data,
// so a key is first seen in ascending order even when its run straddles
// machines and empty machines (which report nothing) sit inside it.
func TestArrangeKeysAscendUnsorted(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	k := c.K()
	type item struct{ Key, Seq int64 }
	data := make([][]item, k)
	count := map[int64]int{}
	add := func(i int, it item) {
		data[i] = append(data[i], it)
		count[it.Key]++
	}
	for j := 0; j < 6000; j++ {
		i := j % k
		if i%3 == 0 {
			continue // every third input machine is empty
		}
		// Five spread keys, negative ones included: distinct sort keys, so
		// the splitters cut inside each run.
		add(i, item{Key: int64(j%5)*1000 - 2000, Seq: int64(j)})
		// One lump: 2,000 items under a single sort key. They land in one
		// bucket, and the buckets of the duplicate splitters after it are
		// empty.
		if j%2 == 0 {
			add(i, item{Key: 500})
		}
	}
	arr, err := Arrange(c, data, func(it item) SortKey { return SortKey{A: it.Key, B: it.Seq} }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Keys) != len(count) {
		t.Fatalf("Keys = %v, want the %d distinct keys", arr.Keys, len(count))
	}
	straddles, empties := 0, 0
	for i := range arr.Data {
		if len(arr.Data[i]) == 0 {
			empties++
		}
	}
	for j, key := range arr.Keys {
		if j > 0 && key <= arr.Keys[j-1] {
			t.Fatalf("Keys[%d] = %d after %d", j, key, arr.Keys[j-1])
		}
		parts := arr.Runs[key]
		if len(parts) > 1 {
			straddles++
		}
		for p := 1; p < len(parts); p++ {
			if parts[p].Machine <= parts[p-1].Machine {
				t.Fatalf("key %d: run parts %v out of machine order", key, parts)
			}
		}
		if arr.Degree(key) != count[key] {
			t.Fatalf("key %d: run index counts %d items, input holds %d", key, arr.Degree(key), count[key])
		}
	}
	if straddles == 0 || empties == 0 {
		t.Fatalf("%d keys straddle machines and %d sorted machines are empty: the input exercises neither", straddles, empties)
	}
}

func TestDistributeEdgesBalanced(t *testing.T) {
	c := newCluster(t, 256, 2048, false)
	g := graph.GNM(256, 2048, 3)
	data, err := DistributeEdges(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if CountItems(data) != g.M() {
		t.Fatal("edges lost in distribution")
	}
	max := 0
	for i := range data {
		if len(data[i]) > max {
			max = len(data[i])
		}
	}
	if max > (g.M()/c.K())+1 {
		t.Fatalf("imbalanced: max %d", max)
	}
}

func TestPrimitivesRoundCountsConstant(t *testing.T) {
	// The whole point of Claims 1-4: O(1) rounds. Check against generous
	// constants.
	c := newCluster(t, 512, 4096, false)
	items := make([][]KV[int64], c.K())
	for i := range items {
		items[i] = []KV[int64]{{K: int64(i % 17), V: 1}}
	}
	before := c.Rounds()
	if _, _, err := AggregateByKey(c, items, 1, func(a, b int64) int64 { return a + b }, true); err != nil {
		t.Fatal(err)
	}
	if used := c.Rounds() - before; used > 25 {
		t.Fatalf("AggregateByKey used %d rounds", used)
	}
	needs := make([][]int64, c.K())
	for i := range needs {
		needs[i] = []int64{int64(i % 17)}
	}
	before = c.Rounds()
	if _, err := DisseminateFromLarge(c, needs, map[int64]int64{0: 1, 5: 2, 16: 3}, 1); err != nil {
		t.Fatal(err)
	}
	if used := c.Rounds() - before; used > 25 {
		t.Fatalf("Disseminate used %d rounds", used)
	}
}
