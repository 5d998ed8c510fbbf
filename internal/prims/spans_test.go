package prims

import (
	"slices"
	"testing"
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

// sitem is a plan's sort item: a request by Req, or with Req < 0 a value of
// Key, keyed (Key, 0, 0) — where walkBuckets puts it is the key's root.
type sitem struct {
	Key int64
	Req int32
}

func sitemKey(it sitem) SortKey {
	if it.Req < 0 {
		return SortKey{A: it.Key}
	}
	return requestKey(request{Key: it.Key, M: it.Req})
}

// FuzzSplitterSpans checks the mechanism that replaced the coordinator
// round-trip against the coordinator's own computation. Every byte of the
// two inputs becomes one key — 32 A words, a value (x, 0, 0) or a request by
// one of 7 requesters — so repeated splitters, splitters equal to a value
// key and keys that sit on several boundaries are the common case (a real
// plan's splitters are requests only: a superset); k ranges over 1..64
// independently of the splitter count. The items are routed with
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
