package prims

import (
	"slices"
	"sync"

	"hetmpc/internal/arena"
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
// warm slabs instead of reallocating the side buffers every time.
var keyedPool = sync.Pool{New: func() any { return &arena.Arena[keyed]{} }}

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
// the index tiebreak (stable in effect). The resulting permutation is
// applied in place by cycle-following. The extraction pass also compares
// each key with its predecessor: input already in order — all keys equal,
// or a list an earlier step sorted — returns after it, having done nothing
// but the n extractions.
func SortLocal[T any](items []T, key func(T) SortKey) {
	n := len(items)
	if n < 2 {
		return
	}
	ar := keyedPool.Get().(*arena.Arena[keyed])
	kb := ar.AllocUninit(n)
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
		ar.Reset()
		keyedPool.Put(ar)
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
	switch {
	case n < radixCutoff || np > 16:
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
		applyPerm(items, kb)
	case np <= 8:
		sortPacked16(items, kb, plan[:np])
	default:
		sortPacked24(items, kb, plan[:np])
	}
	ar.Reset()
	keyedPool.Put(ar)
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

// Packed key records: the pass plan squeezes the ≤8 (≤16) varying key
// bytes of the whole slice into one (two) words, packed LSD — pass p's
// digit sits at bits [8p, 8p+8). Radix passes then move 16- or 24-byte
// records instead of the 32-byte keyed form, and digit extraction is a
// single shift off a fixed word. The packing is order-preserving over the
// planned passes (skipped bytes are constant across the slice), so the
// pass sequence sorts exactly as the unpacked form would.
type keyed16 struct {
	k   uint64
	idx int32
}

type keyed24 struct {
	k0, k1 uint64
	idx    int32
}

var k16Pool = sync.Pool{New: func() any { return &arena.Arena[keyed16]{} }}
var k24Pool = sync.Pool{New: func() any { return &arena.Arena[keyed24]{} }}

// sortPacked16 runs the radix passes on 16-byte packed records. The pack
// sweep is fused with the histogram sweep (counting-sort histograms depend
// only on the key multiset, never on arrangement), so the whole sort is
// one read of kb plus np scatter sweeps over the compact records.
func sortPacked16[T any](items []T, kb []keyed, plan []bytePass) {
	n, np := len(kb), len(plan)
	pa := k16Pool.Get().(*arena.Arena[keyed16])
	buf := pa.AllocUninit(2 * n)
	src, dst := buf[:n], buf[n:]
	ca := countsPool.Get().(*arena.Arena[int32])
	scratch := ca.AllocUninit(np*256 + n)
	counts, perm := scratch[:np*256], scratch[np*256:]
	clear(counts)
	for i := range kb {
		var k uint64
		for p := 0; p < np; p++ {
			d := (kb[i].w[plan[p].word] >> plan[p].shift) & 0xff
			counts[p<<8|int(d)]++
			k |= d << (8 * uint(p))
		}
		src[i] = keyed16{k: k, idx: int32(i)}
	}
	for p := 0; p < np; p++ {
		prefixSum(counts[p<<8 : p<<8+256])
		cp := counts[p<<8 : p<<8+256]
		shift := 8 * uint(p)
		for i := range src {
			d := (src[i].k >> shift) & 0xff
			dst[cp[d]] = src[i]
			cp[d]++
		}
		src, dst = dst, src
	}
	for i := range src {
		perm[i] = src[i].idx
	}
	applyPermIdx(items, perm)
	ca.Reset()
	countsPool.Put(ca)
	pa.Reset()
	k16Pool.Put(pa)
}

// sortPacked24 is sortPacked16 for 9..16 varying bytes: passes 0..7 pack
// into k0, passes 8..15 into k1.
func sortPacked24[T any](items []T, kb []keyed, plan []bytePass) {
	n, np := len(kb), len(plan)
	pa := k24Pool.Get().(*arena.Arena[keyed24])
	buf := pa.AllocUninit(2 * n)
	src, dst := buf[:n], buf[n:]
	ca := countsPool.Get().(*arena.Arena[int32])
	scratch := ca.AllocUninit(np*256 + n)
	counts, perm := scratch[:np*256], scratch[np*256:]
	clear(counts)
	lo := plan[:8]
	hi := plan[8:]
	for i := range kb {
		var k0, k1 uint64
		for p, bp := range lo {
			d := (kb[i].w[bp.word] >> bp.shift) & 0xff
			counts[p<<8|int(d)]++
			k0 |= d << (8 * uint(p))
		}
		for p, bp := range hi {
			d := (kb[i].w[bp.word] >> bp.shift) & 0xff
			counts[(p+8)<<8|int(d)]++
			k1 |= d << (8 * uint(p))
		}
		src[i] = keyed24{k0: k0, k1: k1, idx: int32(i)}
	}
	for p := 0; p < np; p++ {
		prefixSum(counts[p<<8 : p<<8+256])
		cp := counts[p<<8 : p<<8+256]
		if p < 8 {
			shift := 8 * uint(p)
			for i := range src {
				d := (src[i].k0 >> shift) & 0xff
				dst[cp[d]] = src[i]
				cp[d]++
			}
		} else {
			shift := 8 * uint(p-8)
			for i := range src {
				d := (src[i].k1 >> shift) & 0xff
				dst[cp[d]] = src[i]
				cp[d]++
			}
		}
		src, dst = dst, src
	}
	for i := range src {
		perm[i] = src[i].idx
	}
	applyPermIdx(items, perm)
	ca.Reset()
	countsPool.Put(ca)
	pa.Reset()
	k24Pool.Put(pa)
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

// applyPermIdx rearranges items so that items[i] = old items[perm[i]],
// following permutation cycles in place; perm is consumed (visited entries
// are bit-complemented).
func applyPermIdx[T any](items []T, perm []int32) {
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		j := i
		tmp := items[i]
		for {
			src := int(perm[j])
			perm[j] = ^perm[j]
			if src == i {
				items[j] = tmp
				break
			}
			items[j] = items[src]
			j = src
		}
	}
}

// countsPool recycles the fused radix histograms of SortLocal (up to 24
// passes × 256 digits of int32 counts).
var countsPool = sync.Pool{New: func() any { return &arena.Arena[int32]{} }}

// u64Pool recycles the flipped-word scratch of SortInts.
var u64Pool = sync.Pool{New: func() any { return &arena.Arena[uint64]{} }}

// SortInts sorts xs ascending. It is the plain-int64 sibling of the
// SortLocal kernel: the engine's map-drain loops (collect keys, sort,
// iterate deterministically) sit on the per-round hot path of every
// algorithm, so they get the same byte-skipping LSD radix treatment —
// bias-flipped words, OR/AND vary masks, fused histograms, pooled scratch.
// Below the radix cutoff it is exactly slices.Sort; equivalence is pinned
// by TestSortIntsMatchesSlices.
func SortInts(xs []int64) {
	n := len(xs)
	if n < radixCutoff {
		slices.Sort(xs)
		return
	}
	const flip = 1 << 63
	ar := u64Pool.Get().(*arena.Arena[uint64])
	buf := ar.AllocUninit(2 * n)
	src, dst := buf[:n], buf[n:]
	var or uint64
	and := ^uint64(0)
	for i, x := range xs {
		u := uint64(x) ^ flip
		src[i] = u
		or |= u
		and &= u
	}
	vary := or ^ and
	var shifts [8]uint
	np := 0
	for s := uint(0); s < 64; s += 8 {
		if (vary>>s)&0xff != 0 {
			shifts[np] = s
			np++
		}
	}
	if np == 0 {
		// All values equal: xs is already sorted.
		ar.Reset()
		u64Pool.Put(ar)
		return
	}
	ca := countsPool.Get().(*arena.Arena[int32])
	counts := ca.AllocUninit(np * 256)
	clear(counts)
	for _, u := range src {
		for p := 0; p < np; p++ {
			counts[p<<8|int((u>>shifts[p])&0xff)]++
		}
	}
	for p := 0; p < np; p++ {
		cp := counts[p<<8 : p<<8+256]
		prefixSum(cp)
		shift := shifts[p]
		for _, u := range src {
			d := (u >> shift) & 0xff
			dst[cp[d]] = u
			cp[d]++
		}
		src, dst = dst, src
	}
	for i, u := range src {
		xs[i] = int64(u ^ flip)
	}
	ca.Reset()
	countsPool.Put(ca)
	ar.Reset()
	u64Pool.Put(ar)
}

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
