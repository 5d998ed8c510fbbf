package prims

import (
	"errors"
	"slices"
	"testing"

	"hetmpc/internal/mpc"
)

// boundsReport is one machine's (firstKey, lastKey, n>0) after a sort.
type boundsReport struct {
	First, Last int64
	NonEmpty    bool
}

// chainSpans computes, from the per-machine boundary reports of sorted data,
// the set of keys whose runs span more than one machine, bridging empty
// machines that sit inside a run. It is the oracle for splitterSpans: what a
// coordinator that saw every machine's first and last key would announce.
func chainSpans(bounds []boundsReport) []span {
	var spans []span
	i := 0
	k := len(bounds)
	for i < k {
		if !bounds[i].NonEmpty {
			i++
			continue
		}
		key := bounds[i].Last
		// Find the furthest machine j > i whose first key equals key,
		// allowing empty machines in between.
		j := i
		probe := i + 1
		for probe < k {
			if !bounds[probe].NonEmpty {
				probe++
				continue
			}
			if bounds[probe].First == key {
				j = probe
				if bounds[probe].Last != key {
					break
				}
				probe++
				continue
			}
			break
		}
		if j > i {
			spans = append(spans, span{Key: key, A: i, B: j})
			// Continue scanning from j: j's last key may itself span further.
			if bounds[j].Last == key {
				i = j + 1
			} else {
				i = j
			}
			continue
		}
		i++
	}
	return spans
}

// sitem is SegmentedBroadcast's sorted item without its value.
type sitem struct {
	Key int64
	Req int32
}

func sitemKey(it sitem) SortKey { return dissemKey(it.Key, it.Req) }

// FuzzSplitterSpans checks the mechanism that replaced the coordinator
// round-trip against the coordinator's own computation. Every byte of the
// two inputs becomes one key — 32 A words, a value (x, 0, 0) or a request by
// one of 7 requesters — so repeated splitters, splitters equal to a value
// key and keys that sit on several boundaries are the common case; k ranges
// over 1..64 independently of the splitter count. The items are routed with
// walkBuckets, as Sort routes them, and then:
//
//	(i) every machine of a span computes that span, every machine is in at
//	most two, each with B > A and the machine inside it;
//	(ii) every span chainSpans reports from the buckets' actual first and
//	last keys is covered by the computed span of that key;
//	(iii) every value of a spanning key sits on the span's root and every
//	request for it inside the span.
func FuzzSplitterSpans(f *testing.F) {
	f.Add([]byte{40, 40, 40}, []byte{40, 41, 42, 43, 44, 45}, uint8(3))             // repeated splitters
	f.Add([]byte{16, 40}, []byte{16, 17, 18, 40, 41, 8, 48}, uint8(2))              // splitters equal to (x, 0, 0)
	f.Add([]byte{42}, []byte{40, 41, 42, 43, 44}, uint8(15))                        // fewer than k-1 splitters
	f.Add([]byte{41, 43, 45, 47}, []byte{40, 41, 42, 43, 44, 45, 46, 47}, uint8(4)) // one key on every boundary
	f.Add([]byte{9, 17}, []byte{8, 9, 16, 17}, uint8(0))                            // k = 1
	f.Add([]byte{9, 17}, []byte{8, 9, 10, 16}, uint8(1))                            // k = 2
	f.Fuzz(func(t *testing.T, spBytes, itemBytes []byte, km1 uint8) {
		k := int(km1)%64 + 1
		byteKey := func(b byte) sitem { return sitem{Key: int64(b >> 3), Req: int32(b&7) - 1} }
		sp := make([]SortKey, len(spBytes))
		for i, b := range spBytes {
			sp[i] = sitemKey(byteKey(b))
		}
		slices.SortFunc(sp, func(a, b SortKey) int { return a.Compare(b) })
		items := make([]sitem, len(itemBytes))
		for i, b := range itemBytes {
			items[i] = byteKey(b)
		}
		SortLocal(items, sitemKey)
		buckets := make([][]sitem, k)
		walkBuckets(items, sp, k, sitemKey, func(j int, run []sitem) { buckets[j] = run })

		spans := make([][2]span, k)
		byKey := map[int64]span{}
		for i := range spans {
			spans[i] = splitterSpans(sp, k, i)
			for s, si := range spans[i] {
				if si == (span{}) {
					continue
				}
				if si.A >= si.B || i < si.A || i > si.B || si.B >= k || (s == 1 && spans[i][0].Key >= si.Key) {
					t.Fatalf("machine %d of %d computes spans %v", i, k, spans[i])
				}
				if prev, ok := byKey[si.Key]; ok && prev != si {
					t.Fatalf("key %d: machine %d computes %v, an earlier machine %v", si.Key, i, si, prev)
				}
				byKey[si.Key] = si
			}
		}
		for _, si := range byKey {
			for m := si.A; m <= si.B; m++ {
				if spans[m][0] != si && spans[m][1] != si {
					t.Fatalf("machine %d is inside %v but computes %v", m, si, spans[m])
				}
			}
		}

		bounds := make([]boundsReport, k)
		for j, run := range buckets {
			if len(run) > 0 {
				bounds[j] = boundsReport{First: run[0].Key, Last: run[len(run)-1].Key, NonEmpty: true}
			}
		}
		for _, want := range chainSpans(bounds) {
			if got, ok := byKey[want.Key]; !ok || got.A > want.A || got.B < want.B {
				t.Fatalf("the buckets' bounds give %v; the splitters give %v (found %v)", want, got, ok)
			}
		}
		for j, run := range buckets {
			for _, it := range run {
				si, ok := byKey[it.Key]
				if !ok {
					continue // (ii): a key in no span sits in one bucket
				}
				if (it.Req < 0 && j != si.A) || j < si.A || j > si.B {
					t.Fatalf("item %+v of spanning key %v sits on machine %d", it, si, j)
				}
			}
		}
	})
}

// dupValues builds the FirstWins input on k machines: every machine holds
// two values of the hot key 7 and requests it, a cold key 100+j (j < 5) has
// a value on machine j+1 and a later one on machine k-1-j, and key 999 is
// requested by everyone and held by no one.
func dupValues(k int) (values [][]KV[int64], needs [][]int64) {
	values, needs = make([][]KV[int64], k), make([][]int64, k)
	for i := range values {
		values[i] = []KV[int64]{{K: 7, V: int64(10*i + 1)}, {K: 7, V: int64(10*i + 2)}}
		needs[i] = []int64{7, int64(100 + i%5), 999}
	}
	for j := 0; j < 5; j++ {
		values[k-1-j] = append(values[k-1-j], KV[int64]{K: int64(100 + j), V: int64(2000 + j)})
		values[j+1] = append(values[j+1], KV[int64]{K: int64(100 + j), V: int64(1000 + j)})
	}
	return values, needs
}

// TestSegmentedBroadcastDuplicateValuesFirstWins: of several values for one
// key, every requester is answered with the first in (origin machine, origin
// position) order — not with whichever value shares a machine with its
// request, which is what a hot key with 2K values and K requests used to
// read. The large machine's values enter behind a machine's own.
func TestSegmentedBroadcastDuplicateValuesFirstWins(t *testing.T) {
	for _, noLarge := range []bool{false, true} {
		c := newCluster(t, 256, 2048, noLarge)
		values, needs := dupValues(c.K())
		var large []KV[int64]
		if !noLarge {
			large = []KV[int64]{{K: 7, V: -1}, {K: 100, V: -2}, {K: 555, V: 5}, {K: 555, V: 6}}
			needs[3] = append(needs[3], 555)
		}
		got, err := SegmentedBroadcast(c, needs, values, large, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := map[int64]int64{7: 1, int64(100 + i%5): int64(1000 + i%5)}
			if !noLarge && i == 3 {
				want[555] = 5
			}
			if len(got[i]) != len(want) {
				t.Fatalf("noLarge=%v machine %d got %v, want %v", noLarge, i, got[i], want)
			}
			for key, v := range want {
				if got[i][key] != v {
					t.Fatalf("noLarge=%v machine %d got %v, want %v", noLarge, i, got[i], want)
				}
			}
		}
	}
}

// TestSegmentedBroadcastLargeValuesNeedLarge: large values on a cluster
// without a large machine are refused with mpc.ErrNeedsLarge, as every other
// needs-large primitive refuses.
func TestSegmentedBroadcastLargeValuesNeedLarge(t *testing.T) {
	c := newCluster(t, 256, 2048, true)
	_, err := SegmentedBroadcast(c, [][]int64{{7}}, nil, []KV[int64]{{K: 7, V: 1}}, 1)
	if !errors.Is(err, mpc.ErrNeedsLarge) {
		t.Fatalf("err = %v, want ErrNeedsLarge", err)
	}
}

// TestSegmentedBroadcastChargesSortTreeAnswer pins the round cost, a function
// of public parameters only: one Sort of the same items, treeDepth(K, b) tree
// rounds, the answer round, and a scatter round when the large machine holds
// values — nothing for finding the spans.
func TestSegmentedBroadcastChargesSortTreeAnswer(t *testing.T) {
	const k, vwords = 128, 1
	small := mpc.UniformProfile(k)
	small.CapScale[k/2] = 0.006 // room for the splitter list, not for K children
	for _, tc := range []struct {
		name     string
		cfg      mpc.Config
		large    bool
		minDepth int
	}{
		{"default", mpc.Config{}, false, 1},
		{"default, large values", mpc.Config{}, true, 1},
		{"NoLarge", mpc.Config{NoLarge: true}, false, 1},
		{"one small-capacity machine", mpc.Config{Profile: small}, true, 2},
	} {
		cfg := tc.cfg
		cfg.N, cfg.M, cfg.K, cfg.Seed = 256, 2048, k, 42
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		depth := treeDepth(k, branching(c, vwords+1))
		if depth < tc.minDepth {
			t.Fatalf("%s: tree depth %d, want at least %d", tc.name, depth, tc.minDepth)
		}
		values, needs := dupValues(k)
		var large []KV[int64]
		keys := make([][]SortKey, k) // the items' sort keys, where the items enter the sort
		for i := range keys {
			for _, kv := range values[i] {
				keys[i] = append(keys[i], dissemKey(kv.K, -1))
			}
		}
		if tc.large {
			for x := int64(0); x < 3*k; x++ {
				large = append(large, KV[int64]{K: x, V: x})
				m := hashKeyToMachine(x, k)
				keys[m] = append(keys[m], dissemKey(x, -1))
			}
		}
		for i := range keys {
			for _, x := range needs[i] {
				keys[i] = append(keys[i], dissemKey(x, int32(i)))
			}
		}
		before := c.Rounds()
		if _, err := Sort(c, keys, vwords+3, func(key SortKey) SortKey { return key }); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := c.Rounds() - before + depth + 1
		if tc.large {
			want++
		}
		before = c.Rounds()
		got, err := SegmentedBroadcast(c, needs, values, large, vwords)
		if err != nil || got[k-1][7] != 1 {
			t.Fatalf("%s: machine %d got %v, err %v", tc.name, k-1, got[k-1], err)
		}
		if used := c.Rounds() - before; used != want {
			t.Errorf("%s: SegmentedBroadcast charged %d rounds, want %d (one Sort + %d tree + 1 answer)", tc.name, used, want, depth)
		}
	}
}
