package prims

import (
	"slices"
	"sync"
)

// keyed pairs an extracted sort key with the item's original position. The
// key is held as bias-flipped uint64 words (lexicographic uint64 order over
// w equals SortKey.Compare order), so both the radix digits and the
// small-slice comparator work on plain unsigned words; the position doubles
// as the comparator tiebreak (making the comparison fallback stable) and as
// the permutation applied back to the items.
type keyed struct {
	w   [3]uint64 // bias-flipped {A, B, C}, most significant first
	idx int32
}

// flipKey converts k to its bias-flipped word triple: XORing the sign
// bit maps int64 order onto uint64 order.
func flipKey(k SortKey) [3]uint64 {
	const flip = 1 << 63
	return [3]uint64{uint64(k.A) ^ flip, uint64(k.B) ^ flip, uint64(k.C) ^ flip}
}

// keyedPool recycles the keyed scratch of SortLocal across calls: the
// primitives sort per small machine per round, so steady-state rounds reuse
// a warm buffer instead of reallocating the side buffers every time.
var keyedPool = sync.Pool{New: func() any { return new([]keyed) }}

// window returns an n-element view of the pooled buffer *p, reallocating
// only past its high-water mark, to max(n, 2·cap). The view holds whatever
// the buffer last held: every caller overwrites all n elements before
// reading any.
func window[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, max(n, 2*cap(*p)))
	}
	return (*p)[:n]
}

// radixCutoff is the slice length below which SortLocal always uses the
// comparison fallback: an LSD pass costs two linear sweeps plus a 256-entry
// histogram, which only amortizes once the slice dwarfs the histogram.
const radixCutoff = 96

// SortLocal sorts one machine's items by their SortKey — the Sort
// primitive's local-sort kernel, exported for algorithm code that sorts
// large-machine slices outside any primitive. It is equivalent to a stable
// sort with a key-extracting comparator but without per-comparison key
// extraction or closure dispatch: keys are pulled once into a (words,
// index) side buffer
// and sorted with a stable LSD radix over the key bytes. The extraction
// pass folds OR/AND masks over the key words, so only bytes that actually
// vary across the slice get a counting pass — low-entropy keys (the common
// case: single-word keys with a bounded range) sort in two or three linear
// sweeps instead of n·log n comparisons. Counting sort is stable, so the
// byte-skipping LSD order reproduces the stable comparator order exactly —
// pinned by TestSortKernelMatchesStable. Small slices, and slices with more
// than 16 varying key bytes, fall back to pdqsort on the flipped words with
// the index tiebreak (stable in effect): every radix pass moves all n
// 32-byte records, and 17 to 24 passes measured 2–2.5× slower than the
// comparisons at n = 128–512 and no faster from n = 4096 on
// (BenchmarkSortLocal's 24bytes class, against a build with the 16-pass
// cap lifted). The resulting permutation is applied in place by
// cycle-following. The extraction pass also compares each key with its
// predecessor: input already in order — all keys equal, or a list an
// earlier step sorted — returns after it, having done nothing but the n
// extractions.
func SortLocal[T any](items []T, key func(T) SortKey) {
	n := len(items)
	if n < 2 {
		return
	}
	kp := keyedPool.Get().(*[]keyed)
	buf := window(kp, 2*n) // the records, then the radix passes' other half
	kb := buf[:n]
	or := [3]uint64{}
	and := [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	var prev [3]uint64 // the zero triple is below or equal to every flipped key
	inOrder := true
	for i, it := range items {
		w := flipKey(key(it))
		kb[i] = keyed{w: w, idx: int32(i)}
		or[0] |= w[0]
		and[0] &= w[0]
		or[1] |= w[1]
		and[1] &= w[1]
		or[2] |= w[2]
		and[2] &= w[2]
		inOrder = inOrder && !wordsLess(w, prev)
		prev = w
	}
	if inOrder {
		// A stable sort of sorted input is the identity.
		keyedPool.Put(kp)
		return
	}
	// Plan one pass per byte that actually varies, least-significant key
	// word first (LSD order over the triple).
	var plan [24]bytePass
	np := 0
	if n >= radixCutoff {
		for word := 2; word >= 0; word-- {
			vary := or[word] ^ and[word]
			for shift := uint(0); shift < 64; shift += 8 {
				if (vary>>shift)&0xff != 0 {
					plan[np] = bytePass{word, shift}
					np++
				}
			}
		}
	}
	if n < radixCutoff || np > 16 {
		// Comparison sort on the flipped words; the index tiebreak makes
		// it stable in effect.
		slices.SortFunc(kb, func(a, b keyed) int {
			for w := 0; w < 3; w++ {
				if a.w[w] != b.w[w] {
					if a.w[w] < b.w[w] {
						return -1
					}
					return 1
				}
			}
			return int(a.idx) - int(b.idx)
		})
	} else {
		kb = radixSort(kb, buf[n:], plan[:np])
	}
	applyPerm(items, kb)
	keyedPool.Put(kp)
}

// wordsLess is the lexicographic order on flipped key triples.
func wordsLess(a, b [3]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// bytePass names one varying key byte: which flipped word it lives in and
// its bit offset there. A radix run's pass plan is the LSD-ordered list of
// varying bytes.
type bytePass struct {
	word  int
	shift uint
}

// radixSort runs one stable counting pass per planned byte, moving the
// records back and forth between kb and tmp (len(tmp) = len(kb)), and
// returns the half that holds the sorted records. Every pass's histogram
// comes out of one fused sweep up front: a counting-sort histogram depends
// only on the key multiset, never on its arrangement. The skipped bytes
// are constant across the slice, so the planned passes alone sort exactly
// as a pass over every byte would.
func radixSort(kb, tmp []keyed, plan []bytePass) []keyed {
	hp := countsPool.Get().(*[]int32)
	counts := window(hp, len(plan)*256)
	clear(counts)
	for i := range kb {
		for p, bp := range plan {
			counts[p<<8|int((kb[i].w[bp.word]>>bp.shift)&0xff)]++
		}
	}
	src, dst := kb, tmp
	for p, bp := range plan {
		cp := counts[p<<8 : p<<8+256]
		prefixSum(cp)
		for i := range src {
			d := (src[i].w[bp.word] >> bp.shift) & 0xff
			dst[cp[d]] = src[i]
			cp[d]++
		}
		src, dst = dst, src
	}
	countsPool.Put(hp)
	return src
}

// prefixSum converts a 256-digit histogram into exclusive start offsets.
func prefixSum(cp []int32) {
	sum := int32(0)
	for d := range cp {
		c := cp[d]
		cp[d] = sum
		sum += c
	}
}

// countsPool recycles the fused radix histograms of SortLocal (up to 16
// passes × 256 digits of int32 counts).
var countsPool = sync.Pool{New: func() any { return new([]int32) }}

// applyPerm rearranges items so that items[i] = old items[kb[i].idx],
// following permutation cycles in place with O(1) extra space; visited
// entries are marked by bit-complementing their idx (kb is scratch and is
// consumed by the walk).
func applyPerm[T any](items []T, kb []keyed) {
	for i := range kb {
		if kb[i].idx < 0 {
			continue // already placed by an earlier cycle
		}
		j := i
		tmp := items[i]
		for {
			src := int(kb[j].idx)
			kb[j].idx = ^kb[j].idx
			if src == i {
				items[j] = tmp
				break
			}
			items[j] = items[src]
			j = src
		}
	}
}

// walkBuckets routes locally-sorted items into nb ≥ 1 splitter buckets in
// place: bucket j takes the items whose key is below sp[j] and not below
// sp[j-1], and bucket nb-1 takes the remainder — splitters from index nb-1
// on are ignored, so every item is routed whatever len(sp) is. Because the
// items are sorted by the same key order the splitters are drawn from,
// every bucket is a contiguous run, so the walk does no per-item work and
// builds nothing: it is a two-sided galloping merge of the items and the
// splitters. The head item's key is extracted once and gallops over the
// remaining splitters (plain SortKey compares) to its bucket, stepping over
// every empty bucket on the way; that bucket's splitter then gallops over
// the remaining items to the end of the run. A machine holding L items
// therefore pays O(log run + log splitter gap) per emitted run, at most
// 2·⌈log2 run⌉ + 2 key extractions each and min(L, nb) runs, and nothing
// per splitter: on a wide cluster (L ≪ nb) the route step costs what the
// machine holds, not nb·log L (TestWalkKeyCallsFollowRuns). emit receives
// each non-empty bucket's index and run, in bucket order. A run is a
// capacity-clamped subslice of the input, so appending to one cannot
// clobber its neighbor. Zero allocations, pinned by
// TestScatterConstantAllocs. The sorted precondition is the caller's (Sort
// routes the output of its local-sort step); equivalence against per-item
// sort.Search routing is pinned by TestScatterKernelMatchesSearch and
// FuzzWalkBuckets.
func walkBuckets[T any](items []T, sp []SortKey, nb int, key func(T) SortKey, emit func(j int, run []T)) {
	sp = sp[:min(len(sp), nb-1)]
	for lo, j := 0, 0; lo < len(items); j++ {
		kk := key(items[lo])
		below := func(x int) bool { return kk.Less(sp[x]) }
		l, h := gallop(j, len(sp), below)
		j = bisect(l, h, below)
		hi := len(items)
		if j < len(sp) {
			// The end of bucket j: b(it) > j exactly when !key(it).Less(sp[j]).
			s := sp[j]
			past := func(x int) bool { return !key(items[x]).Less(s) }
			l, h := gallop(lo+1, hi, past)
			hi = bisect(l, h, past)
		}
		emit(j, items[lo:hi:hi])
		lo = hi
	}
}

// gallop brackets the first index in [lo, n) at which the monotone
// predicate (false, then true) holds: it probes lo, lo+1, lo+3, lo+7, …
// until the predicate holds or the range ends and returns the last gap
// [l, h) — the answer is in it, or is h — for bisect to finish. An answer d
// past lo costs the pair at most 2·⌈log2(d+1)⌉ + 1 probes, so a search that
// usually ends near where it starts pays for the distance it moves, not for
// log(n-lo). The two halves are separate functions so that each fits the
// inliner's budget and the predicate is compiled into the caller's loop;
// as one function behind a closure call the walk measured 1.5–2× slower.
func gallop(lo, n int, pred func(int) bool) (l, h int) {
	l, h = lo, lo
	for step := 1; h < n && !pred(h); step <<= 1 {
		l = h + 1
		h += step
	}
	return l, min(h, n)
}

// bisect returns the first index in [l, h) at which pred holds, or h.
func bisect(l, h int, pred func(int) bool) int {
	for l < h {
		mid := int(uint(l+h) >> 1)
		if pred(mid) {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return l
}
