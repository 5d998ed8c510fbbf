package prims

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

type kitem struct {
	key  SortKey
	tag  int // distinguishes equal-key items so stability is observable
	pad  [2]int64
	pad2 int64
}

func fuzzedItems(rng *rand.Rand, n, keyRange int) []kitem {
	out := make([]kitem, n)
	for i := range out {
		out[i] = kitem{
			key: SortKey{
				A: int64(rng.Uint64() % uint64(keyRange)),
				B: int64(rng.Uint64() % 4),
				C: int64(rng.Uint64() % 4),
			},
			tag: i,
		}
	}
	return out
}

// TestSortKernelMatchesStable pins the local-sort kernel against the
// reference stable sort: the (key, original index) tiebreak must make
// SortLocal's unstable pdqsort produce exactly the stable order, including
// among equal keys (observable through the tags).
func TestSortKernelMatchesStable(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, keyRange := range []int{1, 3, 1 << 30} {
			items := fuzzedItems(rng, n, keyRange)
			want := slices.Clone(items)
			slices.SortStableFunc(want, func(a, b kitem) int { return a.key.Compare(b.key) })
			got := slices.Clone(items)
			SortLocal(got, func(it kitem) SortKey { return it.key })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d keyRange=%d: SortLocal diverges from stable sort", n, keyRange)
			}
		}
	}
}

// walkedBuckets collects walkBuckets' emitted runs by bucket index; it fails
// the test if the walk emits an empty run, a bucket out of order or one
// twice.
func walkedBuckets(t *testing.T, items []kitem, sp []SortKey, nb int) [][]kitem {
	t.Helper()
	got := make([][]kitem, nb)
	last := -1
	walkBuckets(items, sp, nb, func(it kitem) SortKey { return it.key }, func(j int, run []kitem) {
		if len(run) == 0 || j <= last {
			t.Fatalf("walk emitted bucket %d (len %d) after bucket %d", j, len(run), last)
		}
		got[j], last = run, j
	})
	return got
}

// searchBuckets is the routing oracle: every item goes, one at a time, to
// the first bucket whose splitter its key is below (sort.Search over the
// nb-1 splitters that bound nb buckets), the last bucket if none.
func searchBuckets(items []kitem, sp []SortKey, nb int) [][]kitem {
	sp = sp[:min(len(sp), nb-1)]
	want := make([][]kitem, nb)
	for _, it := range items {
		j := sort.Search(len(sp), func(x int) bool { return it.key.Less(sp[x]) })
		want[j] = append(want[j], it)
	}
	return want
}

// TestScatterKernelMatchesSearch pins the in-place bucket walk against the
// reference sort.Search + append loop on locally-sorted input (Sort's
// precondition for the fast path), including the empty-bucket convention
// (a bucket that receives nothing is never emitted, nil in the reference)
// and duplicate splitters (forced empty middle buckets) — at the machine
// sizes and bucket counts the perf workloads run, over key layouts that
// put each side of the galloping merge at its extremes.
func TestScatterKernelMatchesSearch(t *testing.T) {
	rng := xrand.New(11)
	// Items draw their A word from [itemLo, itemLo+span), splitters from
	// [spLo, spLo+span); itemsOnSplitters copies a splitter's key into each.
	layouts := []struct {
		name             string
		itemLo, spLo     int64
		span             uint64
		itemsOnSplitters bool
	}{
		// Eight distinct A words: from nb=33 up the splitter list is
		// stretches of duplicates far longer than one gallop step.
		{name: "few-keys", span: 8},
		// Mostly distinct splitters, wide splitter gaps between items.
		{name: "sparse", span: 1 << 20},
		{name: "all-in-bucket-0", spLo: 100, span: 8},
		{name: "all-in-last-bucket", itemLo: 100, span: 8},
		{name: "keys-equal-splitters", span: 64, itemsOnSplitters: true},
	}
	for _, lay := range layouts {
		for _, n := range []int{0, 1, 5, 16, 257, 4096} {
			for _, nb := range []int{1, 2, 8, 33, 512, 2048} {
				for _, nsp := range []int{nb - 1, (nb - 1) / 2, 0} { // full, short and empty splitter lists
					sp := make([]SortKey, nsp)
					for i := range sp {
						sp[i] = SortKey{A: lay.spLo + int64(rng.Uint64()%lay.span), B: int64(rng.Uint64() % 2)}
					}
					slices.SortFunc(sp, func(a, b SortKey) int { return a.Compare(b) })
					items := fuzzedItems(rng, n, int(lay.span))
					for i := range items {
						items[i].key.A += lay.itemLo
						if lay.itemsOnSplitters && nsp > 0 {
							items[i].key = sp[rng.IntN(nsp)]
						}
					}
					stableSort(items)

					want := searchBuckets(items, sp, nb)
					got := walkedBuckets(t, items, sp, nb)
					for b := range want {
						if (got[b] == nil) != (want[b] == nil) || !reflect.DeepEqual(got[b], want[b]) {
							t.Fatalf("%s n=%d nb=%d len(sp)=%d bucket %d: walkBuckets diverges from sort.Search routing", lay.name, n, nb, nsp, b)
						}
					}
				}
			}
		}
	}
}

// TestWalkRoutesEveryItem pins the remainder-bucket rule: the walk routes
// into nb buckets whatever len(sp) is — splitters from index nb-1 on are
// ignored and bucket nb-1 takes every item at or above sp[nb-2] — where a
// loop over all of sp that stops at bucket nb dropped them.
func TestWalkRoutesEveryItem(t *testing.T) {
	const nb = 8
	rng := xrand.New(19)
	for _, nsp := range []int{0, nb - 2, nb - 1, nb, 2 * nb} {
		sp := make([]SortKey, nsp)
		for i := range sp {
			sp[i] = SortKey{A: int64(4 * (i + 1))}
		}
		items := fuzzedItems(rng, 200, 4*(2*nb+2)) // keys on both sides of every splitter
		stableSort(items)
		want := searchBuckets(items, sp, nb)
		routed := 0
		walkBuckets(items, sp, nb, func(it kitem) SortKey { return it.key }, func(j int, run []kitem) {
			if j < 0 || j >= nb {
				t.Fatalf("len(sp)=%d: walk emitted bucket %d of %d", nsp, j, nb)
			}
			if !reflect.DeepEqual(run, want[j]) {
				t.Errorf("len(sp)=%d bucket %d: walkBuckets diverges from sort.Search over the first nb-1 splitters", nsp, j)
			}
			routed += len(run)
		})
		if routed != len(items) {
			t.Errorf("len(sp)=%d: walk routed %d of %d items", nsp, routed, len(items))
		}
	}
}

// TestWalkKeyCallsFollowRuns pins the walk's cost to what it emits: a
// machine extracts at most 2·⌈log2(longest run + 1)⌉ + 3 keys per run,
// whatever nb is. One bisection per splitter would make nb·log L calls —
// about 6,000 for the 16 runs of the wide shape.
func TestWalkKeyCallsFollowRuns(t *testing.T) {
	for _, sh := range walkShapes {
		items, sp := sh.build()
		calls, runs, longest := 0, 0, 0
		walkBuckets(items, sp, sh.k, func(it kitem) SortKey { calls++; return it.key }, func(_ int, run []kitem) {
			runs++
			longest = max(longest, len(run))
		})
		if bound := runs * (2*bits.Len(uint(longest)) + 3); calls > bound {
			t.Errorf("L=%d nb=%d: %d key calls for %d runs (longest %d), want ≤ %d", sh.l, sh.k, calls, runs, longest, bound)
		}
	}
}

// FuzzWalkBuckets fuzzes the bucket walk against the per-item sort.Search
// oracle (committed seed corpus under testdata/fuzz): every byte of items
// and splitters becomes one key (64 A words × 4 B words, so duplicates and
// exact splitter hits are the common case), both sides are sorted, and nb
// ranges over 1..4096 independently of len(sp) — shorter and longer
// splitter lists than nb-1 included. The runs must come in ascending bucket
// order, non-empty, capacity-clamped, and concatenate to the oracle's
// buckets item for item.
func FuzzWalkBuckets(f *testing.F) {
	f.Add([]byte{4, 20, 36}, []byte{8, 24}, uint16(1)) // keys 1/5/9, splitters {2, 6}, nb = 2
	f.Add([]byte{1, 2, 3}, []byte{}, uint16(2047))     // no splitters
	f.Add([]byte{}, []byte{9}, uint16(0))
	f.Fuzz(func(t *testing.T, itemBytes, spBytes []byte, nbm1 uint16) {
		byteKey := func(b byte) SortKey { return SortKey{A: int64(b >> 2), B: int64(b & 3)} }
		nb := int(nbm1)%4096 + 1
		items := make([]kitem, len(itemBytes))
		for i, b := range itemBytes {
			items[i] = kitem{key: byteKey(b), tag: i}
		}
		stableSort(items)
		sp := make([]SortKey, len(spBytes))
		for i, b := range spBytes {
			sp[i] = byteKey(b)
		}
		slices.SortFunc(sp, func(a, b SortKey) int { return a.Compare(b) })

		want := searchBuckets(items, sp, nb)
		last := -1
		walkBuckets(items, sp, nb, func(it kitem) SortKey { return it.key }, func(j int, run []kitem) {
			if j <= last || j >= nb || len(run) == 0 || cap(run) != len(run) {
				t.Fatalf("walk emitted bucket %d of %d (len %d, cap %d) after bucket %d", j, nb, len(run), cap(run), last)
			}
			if !reflect.DeepEqual(run, want[j]) {
				t.Fatalf("bucket %d: walkBuckets diverges from sort.Search routing", j)
			}
			want[j], last = nil, j
		})
		for j := range want {
			if want[j] != nil {
				t.Fatalf("walk never emitted bucket %d (%d items)", j, len(want[j]))
			}
		}
	})
}

// TestScatterConstantAllocs pins the bucket walk's allocation count: none,
// regardless of item count — the runs are subslices of the sorted input
// handed to the caller one at a time, versus per-item routing's per-bucket
// append doublings and a bucket-header array per call.
func TestScatterConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	rng := xrand.New(13)
	key := func(it kitem) SortKey { return it.key }
	sp := make([]SortKey, 31)
	for i := range sp {
		sp[i] = SortKey{A: int64(i * 8)}
	}
	alloc := func(n int) float64 {
		items := fuzzedItems(rng, n, 256)
		slices.SortStableFunc(items, func(a, b kitem) int { return a.key.Compare(b.key) })
		return testing.AllocsPerRun(20, func() {
			routed := 0
			walkBuckets(items, sp, 32, key, func(_ int, run []kitem) { routed += len(run) })
			if routed != n {
				t.Fatalf("walk routed %d of %d items", routed, n)
			}
		})
	}
	if small, large := alloc(64), alloc(16384); small != 0 || large != 0 {
		t.Errorf("bucket walk allocates %v per call at n=64, %v at n=16384, want 0", small, large)
	}
}

// TestScatterViewsAreCapClamped pins the no-clobber guarantee of the
// subslice buckets: appending past a bucket's length copies out instead of
// overwriting the neighboring run of the shared backing array.
func TestScatterViewsAreCapClamped(t *testing.T) {
	items := []kitem{{key: SortKey{A: 0}}, {key: SortKey{A: 10}, tag: 42}}
	sp := []SortKey{{A: 5}}
	got := walkedBuckets(t, items, sp, 2)
	_ = append(got[0], kitem{tag: -1}) // must not clobber got[1][0]
	if got[1][0].tag != 42 {
		t.Fatalf("append past bucket 0 clobbered bucket 1: tag = %d", got[1][0].tag)
	}
}

// TestSortLocalSteadyStateAllocs pins the pooled scratch of every SortLocal
// path: once the pools are warm, sorting allocates nothing beyond the sort
// itself — below the radix cutoff, past 16 varying key bytes (both the
// comparison sort), and on radix plans of 5 and 11 varying key bytes.
func TestSortLocalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	gens := keyGens(17)
	key := func(it kitem) SortKey { return it.key }
	for _, tc := range []struct {
		name, gen string
		n         int
	}{
		{"comparison/short", "5bytes", radixCutoff - 32},
		{"comparison/24bytes", "24bytes", 4096},
		{"radix/5bytes", "5bytes", 4096},
		{"radix/11bytes", "11bytes", 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := make([]kitem, tc.n)
			for i := range items {
				items[i] = kitem{key: gens[tc.gen](), tag: i}
			}
			scratch := slices.Clone(items)
			SortLocal(scratch, key) // warm the pools
			if got := testing.AllocsPerRun(20, func() {
				copy(scratch, items)
				SortLocal(scratch, key)
			}); got != 0 {
				t.Errorf("steady-state SortLocal allocates %v per call, want 0", got)
			}
		})
	}
}

// TestSortLocalSortedInputAllocsAndKeyCalls pins the in-order return: input
// that is already sorted — distinct keys and ties alike — costs the
// extraction pass and nothing else, n key calls and no allocation, either
// side of the radix cutoff; and the check is not a sample: one inversion at
// the last position still sorts to the stable order.
func TestSortLocalSortedInputAllocsAndKeyCalls(t *testing.T) {
	rng := xrand.New(19)
	calls := 0
	key := func(it kitem) SortKey { calls++; return it.key }
	byKey := func(a, b kitem) int { return a.key.Compare(b.key) }
	for _, n := range []int{16, 95, 96, 4096} {
		sorted := fuzzedItems(rng, n, n/2) // n/2 keys over n items: ties throughout
		slices.SortStableFunc(sorted, byKey)
		got := slices.Clone(sorted)
		SortLocal(got, key) // warm the pool
		calls = 0
		allocs := testing.AllocsPerRun(10, func() { SortLocal(got, key) })
		if perRun := calls / 11; perRun != n || !reflect.DeepEqual(got, sorted) {
			t.Errorf("n=%d: sorted input cost %d key calls (want %d) or was reordered", n, perRun, n)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("n=%d: sorted input allocates %v per call, want 0", n, allocs)
		}

		got[n-1].key = SortKey{A: -1} // below every key before it
		want := slices.Clone(got)
		slices.SortStableFunc(want, byKey)
		SortLocal(got, key)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: an inversion at the last position is not sorted out", n)
		}
	}
}

// keyGens draws sort keys from each pass-plan class of the radix kernel,
// named by how many key bytes vary: 0 (all keys equal, observable only
// through the tags), 2, 5 and 11 (radix passes), 24 (past 16: the
// comparison fallback), plus negative key words (bias flip on every word).
// Slices shorter than radixCutoff take the comparison fallback whatever the
// class. Each class draws from its own rng, split from seed by the class's
// place in sorted order, so a class's keys do not depend on which other
// classes drew before it.
func keyGens(seed uint64) map[string]func() SortKey {
	draws := map[string]func(rng *rand.Rand) SortKey{
		"allequal": func(*rand.Rand) SortKey { return SortKey{A: 7, B: -1, C: 3} },
		"2bytes":   func(rng *rand.Rand) SortKey { return SortKey{A: int64(rng.Uint64() % 65536)} },
		"5bytes": func(rng *rand.Rand) SortKey {
			return SortKey{A: int64(rng.Uint64() % (1 << 24)), B: int64(rng.Uint64() % 4), C: int64(rng.Uint64() % 256)}
		},
		"11bytes": func(rng *rand.Rand) SortKey {
			return SortKey{A: int64(rng.Uint64()), B: int64(rng.Uint64() % 65536), C: int64(rng.Uint64() % 4)}
		},
		"24bytes": func(rng *rand.Rand) SortKey {
			return SortKey{A: int64(rng.Uint64()), B: int64(rng.Uint64()), C: int64(rng.Uint64())}
		},
		"negative": func(rng *rand.Rand) SortKey {
			return SortKey{A: int64(rng.Uint64()%512) - 256, B: int64(rng.Uint64()%16) - 8, C: int64(rng.Uint64())}
		},
	}
	gens := make(map[string]func() SortKey, len(draws))
	for i, name := range classNames(draws) {
		rng, draw := xrand.New(xrand.Split(seed, uint64(i))), draws[name]
		gens[name] = func() SortKey { return draw(rng) }
	}
	return gens
}

// classNames returns the names of a map of key classes in sorted order, so
// the tests that range over the classes run them in one order.
func classNames[F any](classes map[string]F) []string {
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// stableSort is the local-sort oracle: the closure-based stable comparator
// sort the radix kernel replaced.
func stableSort(items []kitem) {
	slices.SortStableFunc(items, func(a, b kitem) int { return a.key.Compare(b.key) })
}

// TestSortKernelPassPlans pins the radix kernel against the stable oracle
// across every pass-plan class of keyGens.
func TestSortKernelPassPlans(t *testing.T) {
	gens := keyGens(53)
	for _, name := range classNames(gens) {
		gen := gens[name]
		for _, n := range []int{96, 500, 4096} {
			items := make([]kitem, n)
			for i := range items {
				items[i] = kitem{key: gen(), tag: i}
			}
			want := slices.Clone(items)
			stableSort(want)
			got := slices.Clone(items)
			SortLocal(got, func(it kitem) SortKey { return it.key })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: SortLocal diverges from stable sort", name, n)
			}
		}
	}
}

// mapCombine is the local-combine oracle: fold every item into a map in
// input order, then sort the distinct keys.
func mapCombine[V any](items []KV[V], combine func(a, b V) V) []KV[V] {
	m := make(map[int64]V, len(items))
	for _, kv := range items {
		if cur, ok := m[kv.K]; ok {
			m[kv.K] = combine(cur, kv.V)
		} else {
			m[kv.K] = kv.V
		}
	}
	out := make([]KV[V], 0, len(m))
	for key, v := range m {
		out = append(out, KV[V]{K: key, V: v})
	}
	slices.SortFunc(out, func(a, b KV[V]) int { return cmp.Compare(a.K, b.K) })
	return out
}

// TestAggregateCombineKernelMatchesMap pins the local-combine kernel
// against the map-fold oracle, fold order included (the combine below is
// deliberately non-commutative in its fold history so any reordering of a
// key's occurrences shows up in the result) — directly, per machine, on
// sizes either side of the radix cutoff, and then through AggregateByKey:
// every machine's oracle partial must survive into its key's root as one
// contiguous, in-order piece.
func TestAggregateCombineKernelMatchesMap(t *testing.T) {
	combine := func(a, b []int64) []int64 { return append(a, b...) }
	rng := xrand.New(23)
	gen := func(machine, n, keyRange int) []KV[[]int64] {
		items := make([]KV[[]int64], n)
		for j := range items {
			key := int64(rng.Uint64()%uint64(keyRange)) - int64(keyRange/2)
			items[j] = KV[[]int64]{K: key, V: []int64{int64(machine*10000 + j)}}
		}
		return items
	}
	for _, n := range []int{0, 1, 40, 95, 96, 1000} {
		for _, keyRange := range []int{1, 50, 1 << 20} {
			items := gen(0, n, keyRange)
			want := mapCombine(items, combine)
			got := localCombine(nil, items, combine)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d keyRange=%d: localCombine diverges from the map-fold oracle", n, keyRange)
			}
		}
	}

	// End to end. The deep shape is TestDeepTrees': 40-word values on a
	// small-CSmall cluster push the tree branching below K/2, a cold key per
	// machine plus a hot key on every fourth.
	shapes := []struct {
		name   string
		cfg    mpc.Config
		vwords int
		items  func(i int) []KV[[]int64]
	}{
		{"flat", mpc.Config{N: 256, M: 1024, Seed: 3}, 1, func(i int) []KV[[]int64] { return gen(i, 40, 50) }},
		{"deep", mpc.Config{N: 256, M: 2048, K: 64, CSmall: 0.1, CLarge: 0.027, Seed: 42}, 40, func(i int) []KV[[]int64] {
			kvs := []KV[[]int64]{{K: int64(100 + i), V: []int64{int64(i)}}}
			if i%4 == 0 {
				kvs = append(kvs, KV[[]int64]{K: 9, V: []int64{int64(10000 + i)}})
			}
			return kvs
		}},
	}
	for _, sh := range shapes {
		for _, mode := range []struct{ noLarge, gather bool }{{false, false}, {false, true}, {true, false}} {
			cfg := sh.cfg
			cfg.NoLarge = mode.noLarge
			c, err := mpc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			items := make([][]KV[[]int64], c.K())
			for i := range items {
				items[i] = sh.items(i)
			}
			t.Run(fmt.Sprintf("%s/noLarge=%v/gather=%v", sh.name, mode.noLarge, mode.gather), func(t *testing.T) {
				checkAggregate(t, c, items, sh.vwords, mode.gather)
			})
		}
	}
}

// checkAggregate is the end-to-end half of
// TestAggregateCombineKernelMatchesMap: one AggregateByKey under the
// fold-history combine, checked against the map-fold oracle.
func checkAggregate(t *testing.T, c *mpc.Cluster, items [][]KV[[]int64], vwords int, gather bool) {
	combine := func(a, b []int64) []int64 { return append(a, b...) }
	partials := make([][]KV[[]int64], len(items))
	for i := range items {
		partials[i] = mapCombine(items[i], combine)
	}
	want := mapCombine(Flatten(items), combine)
	roots, err := AggregateByKey(c, items, vwords, combine)
	if err != nil {
		t.Fatal(err)
	}
	// roots are the sorted runs: strictly increasing keys within a machine
	// and from one machine to the next, so they line up with the oracle's
	// sorted keys one to one; each value is the oracle's as a multiset (the
	// route decides the order a key's partials meet in).
	got := Flatten(roots)
	if len(got) != len(want) {
		t.Fatalf("roots hold %d keys, the oracle %d", len(got), len(want))
	}
	final := map[int64][]int64{}
	for j, kv := range got {
		if j > 0 && kv.K <= got[j-1].K {
			t.Fatalf("roots not strictly increasing: key %d after %d", kv.K, got[j-1].K)
		}
		final[kv.K] = kv.V
		a, b := slices.Clone(kv.V), slices.Clone(want[j].V)
		slices.Sort(a)
		slices.Sort(b)
		if kv.K != want[j].K || !slices.Equal(a, b) {
			t.Fatalf("root %d = (%d, %v), oracle (%d, %v)", j, kv.K, kv.V, want[j].K, want[j].V)
		}
	}
	if gather {
		// The roots reach the large machine as they stand: the same pairs,
		// in the same order.
		atLarge, err := GatherKVs(c, roots, vwords)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(atLarge, got) {
			t.Fatalf("GatherKVs of the roots gives %v, the roots %v", atLarge, got)
		}
	}
	for i := range partials {
		for _, kv := range partials[i] {
			at := slices.Index(final[kv.K], kv.V[0])
			if at < 0 || at+len(kv.V) > len(final[kv.K]) || !slices.Equal(final[kv.K][at:at+len(kv.V)], kv.V) {
				t.Fatalf("machine %d key %d: oracle partial %v is not a contiguous piece of root %v", i, kv.K, kv.V, final[kv.K])
			}
		}
	}
}

// TestSortKernelEndToEnd pins the full Sort primitive against its per-step
// oracles under the real splitters: a twin cluster runs the splitter steps
// over stable-sorted inputs, the oracle routes every item by sort.Search and
// stable-sorts each bucket's sender-major concatenation, and Sort's buckets,
// contents and order must match exactly — for every pass-plan class, at
// per-machine sizes either side of the radix cutoff.
func TestSortKernelEndToEnd(t *testing.T) {
	key := func(it kitem) SortKey { return it.key }
	gens := keyGens(31)
	for _, name := range classNames(gens) {
		gen := gens[name]
		for _, per := range []int{64, 200} { // all-equal keys land on one machine: K·per words must fit it
			cfg := mpc.Config{N: 256, M: 4096, Seed: 9}
			c, err := mpc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k := c.K()
			data := make([][]kitem, k)
			for i := range data {
				data[i] = make([]kitem, per)
				for j := range data[i] {
					data[i][j] = kitem{key: gen(), tag: i*per + j}
				}
			}
			sorted := make([][]kitem, k)
			for i := range data {
				sorted[i] = slices.Clone(data[i])
				stableSort(sorted[i])
			}
			got, err := Sort(c, data, 1, key)
			if err != nil {
				t.Fatal(err)
			}

			twin, err := mpc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, _, _, err := sortSplitters(twin, sortLeaders(twin, split{}), sorted, key, split{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]kitem, k)
			for i := range sorted {
				for _, it := range sorted[i] {
					j := sort.Search(len(sp), func(x int) bool { return it.key.Less(sp[x]) })
					want[j] = append(want[j], it)
				}
			}
			for j := range want {
				stableSort(want[j])
				if len(got[j]) != len(want[j]) || (len(want[j]) > 0 && !reflect.DeepEqual(got[j], want[j])) {
					t.Fatalf("%s per=%d: Sort bucket %d diverges from the stable-sort + sort.Search oracle", name, per, j)
				}
			}
			if !IsGloballySorted(got, key) {
				t.Fatalf("%s per=%d: Sort output is not globally sorted", name, per)
			}
		}
	}
}
