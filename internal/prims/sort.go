package prims

import (
	"cmp"
	"fmt"

	"hetmpc/internal/mpc"
)

// SortKey is the compact, 3-word lexicographic sort key extracted from every
// item. Keeping splitters to 3 words (rather than whole items, which may
// carry large payloads such as labels) keeps the splitter broadcast within
// the small machines' capacity.
type SortKey struct{ A, B, C int64 }

// Less is the lexicographic order on sort keys.
func (k SortKey) Less(o SortKey) bool {
	if k.A != o.A {
		return k.A < o.A
	}
	if k.B != o.B {
		return k.B < o.B
	}
	return k.C < o.C
}

// Compare is the three-way lexicographic order on sort keys.
func (k SortKey) Compare(o SortKey) int {
	if c := cmp.Compare(k.A, o.A); c != 0 {
		return c
	}
	if c := cmp.Compare(k.B, o.B); c != 0 {
		return c
	}
	return cmp.Compare(k.C, o.C)
}

const sortKeyWords = 3

// Sort implements Claim 1: it sorts the items stored on the small machines
// by their SortKey so that afterwards machine i's items all precede machine
// i+1's items and each machine's slice is locally sorted. It is a sample
// sort:
//
//  1. local sort;
//  2. every machine sends a small weighted key sample to the coordinator
//     (1 round);
//  3. the coordinator picks K-1 splitter keys and replies to every machine
//     (1 round): a machine whose sample was its whole run gets the cuts of
//     that run, (bucket, count) pairs, and any other the splitter list, to
//     cut its run itself. When the replies together exceed the
//     coordinator's round budget the list goes to everyone instead, down a
//     capacity-bounded tree;
//  4. items are routed to their bucket along the cuts (1 round) and
//     re-sorted.
//
// itemWords is the accounted size of one item.
func Sort[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, error) {
	sorted, _, err := sortSplit(c, data, itemWords, key, false)
	return sorted, err
}

// layout is what a Sort leaves behind besides the buckets: the coordinator's
// splitter list, every machine's cuts of its locally sorted run (data[i],
// sorted in place) and, if asked for, the spans — entries 2i and 2i+1 are
// machine i's.
type layout struct {
	sp    []SortKey
	cuts  [][]cut
	spans []span
}

// sortSplit is Sort that also returns its layout and, with wantSpans, tells
// every machine the spans it sits in: bucket j holds exactly the keys in
// [sp[j-1], sp[j]) (the splitter list sp clipped to K-1, as walkBuckets clips
// it), so which keys can straddle which machines is a function of the list
// alone (splitterSpans).
func sortSplit[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey, wantSpans bool) ([][]T, layout, error) {
	defer c.Span("sort").End()
	k := c.K()
	if err := checkBuckets(c, "Sort", data); err != nil {
		return nil, layout{}, err
	}
	if len(data) < k {
		nd := make([][]T, k)
		copy(nd, data)
		data = nd
	}
	// Under fault injection the input buckets are the machines' live state
	// until the routed buckets replace them below.
	registerState(c, data, itemWords)

	// Step 1: local sort (parallel local computation, no rounds).
	c.Each(func(i int) {
		SortLocal(data[i], key)
	})

	// Step 1's local sort makes the buckets contiguous runs, so a machine's
	// route is at most min(K, items) cuts of its run: the cuts are one array
	// carved by that bound here (serially); the steps below only fill it in.
	starts := make([]int, k+1) // machine i's share sits at [starts[i], starts[i+1])
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + min(k, len(data[i]))
	}
	cutBuf := make([]cut, starts[k])

	// Steps 2–3: sample, pick the splitters, reply.
	lay := layout{cuts: make([][]cut, k)}
	var samples []sample
	var err error
	if lay.sp, samples, err = sortSplitters(c, data, key); err != nil {
		return nil, layout{}, err
	}
	if wantSpans {
		lay.spans = make([]span, 2*k)
	}
	replies, err := sortReplies(c, lay.sp, samples, cutBuf, starts, lay.spans)
	if err != nil {
		return nil, layout{}, err
	}

	// Step 4: route every item to its bucket along the cuts. A machine that
	// was sent the list first walks it over its run into cuts — and reads its
	// spans off it — so the route has one form of input.
	c.Each(func(i int) {
		lay.cuts[i] = replies[i].Cuts
		if list := replies[i].List; list != nil {
			lay.cuts[i] = runCuts(cutBuf[starts[i]:starts[i]:starts[i+1]], data[i], list, k, key)
			if wantSpans {
				si := splitterSpans(list, k, i)
				copy(lay.spans[2*i:], si[:])
			}
		}
	})
	result, err := route(c, data, lay.cuts, itemWords, 0, key)
	if err != nil {
		return nil, layout{}, err
	}
	// The routed, locally sorted buckets are now the machines' state.
	registerState(c, result, itemWords)
	return result, lay, nil
}

// route is Sort's step 4, the one round that moves items along cuts: every
// machine sends its locally sorted run data[i] to the buckets cuts[i] names,
// one chunk a cut, and each bucket comes back re-sorted. The round's
// messages, their chunk payloads and the buckets are one array each: the
// receive side counts each inbox (the checked pass — a foreign payload is an
// error before anything is copied), carves the buckets cap-clamped with spare
// free slots past each, then copies and re-sorts each in place.
func route[T any](c *mpc.Cluster, data [][]T, cuts [][]cut, itemWords, spare int, key func(T) SortKey) ([][]T, error) {
	k := c.K()
	starts := make([]int, k+1) // machine i's share of an array sits at [starts[i], starts[i+1])
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + len(cuts[i])
	}
	outs := make([][]mpc.Msg, k)
	msgs := make([]mpc.Msg, starts[k])
	slab := make([]chunk[T], starts[k])
	c.Each(func(i int) {
		out, lo := msgs[starts[i]:starts[i]:starts[i+1]], 0
		for _, ct := range cuts[i] {
			hi := lo + int(ct.Count)
			out = append(out, chunkMsg(&slab[starts[i]+len(out)], int(ct.Bucket), data[i][lo:hi:hi], itemWords))
			lo = hi
		}
		outs[i] = out
	})
	ins, _, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	if err := c.ForSmall(func(i int) (err error) {
		starts[i+1], err = chunkItems[T](ins[i])
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		starts[i+1] += starts[i] + spare
	}
	flat := make([]T, starts[k])
	result := make([][]T, k)
	c.Each(func(i int) {
		result[i] = copyChunks(flat[starts[i]:starts[i]:starts[i+1]], ins[i])
		SortLocal(result[i], key)
	})
	return result, nil
}

// sortSplitters is step 2 of Sort over locally sorted data and the
// coordinator's half of step 3: every machine sends a weighted key sample to
// the coordinator, which picks the K-1 placement-weighted splitters. It
// returns the coordinator's list and the samples it was sent, by machine.
func sortSplitters[T any](c *mpc.Cluster, data [][]T, key func(T) SortKey) ([]SortKey, []sample, error) {
	k := c.K()
	// Step 2: weighted key samples to the coordinator (sample extraction is
	// local computation, parallel over the small-machine axis).
	q := coordCap(c) / (2 * k * (sortKeyWords + 1))
	if q < 1 {
		q = 1
	}
	if q > 64 {
		q = 64
	}
	// The round's samples are one slab and their keys one array, carved
	// here (serially) so the parallel extraction only fills them in.
	outs := perMachineOuts(k)
	slab := make([]sample, k)
	nkeys := 0
	for i := range slab {
		nkeys += min(q, len(data[i]))
	}
	keyBuf := make([]SortKey, nkeys)
	for i := range slab {
		take := min(q, len(data[i]))
		slab[i] = sample{Keys: keyBuf[:take:take], Count: len(data[i])}
		keyBuf = keyBuf[take:]
	}
	c.Each(func(i int) {
		keys, n := slab[i].Keys, len(data[i])
		for j := range keys {
			keys[j] = key(data[i][j*n/len(keys)])
		}
		outs[i][0] = mpc.Msg{To: coordinator(c), Words: len(keys)*sortKeyWords + 1, Data: &slab[i]}
	})
	inbox, err := toCoordinator(c, outs)
	if err != nil {
		return nil, nil, err
	}

	// Step 3: coordinator picks splitters weighted by machine loads.
	samples, total, err := collectSamples(inbox)
	if err != nil {
		return nil, nil, err
	}
	SortLocal(samples, func(s weightedKey) SortKey { return s.key })
	// Splitter targets are placement-weighted: bucket i should hold a
	// PlaceShare(i)/Σ share of the items under the cluster's placement
	// policy (DESIGN.md §8) — capacity shares under the default cap policy
	// (Frisk's balancing rule), min(capacity, effective speed) under
	// throughput/speculate — so skewed machines receive only what they can
	// absorb (or move in time). With uniform weights (all exactly 1) this
	// reduces to the even split total/k.
	splitters := make([]SortKey, 0, k-1)
	if len(samples) > 0 && total > 0 {
		var totalShare float64
		prefix := make([]float64, k) // prefix[j] = Σ_{i<j} PlaceShare(i)
		for i := 0; i < k; i++ {
			prefix[i] = totalShare
			totalShare += c.PlaceShare(i)
		}
		var cum float64
		next := 1
		target := float64(total) / totalShare
		for _, s := range samples {
			cum += s.weight
			for next < k && cum >= prefix[next]*target {
				splitters = append(splitters, s.key)
				next++
			}
		}
	}
	return splitters, slab, nil
}

// cut is one step of a machine's route: the next Count items of its locally
// sorted run go to machine Bucket.
type cut struct{ Bucket, Count int32 }

const (
	cutWords  = 2
	spanWords = 3
)

// sortReply is the coordinator's answer to one machine's sample: the cuts of
// the machine's run or, for a machine that holds more than it sampled, the
// splitter list to derive them from. The list is never nil (sortSplitters
// makes it), so a nil List says the reply is cuts.
type sortReply struct {
	Cuts []cut
	List []SortKey
}

// sortReplies is the rest of step 3: the coordinator answers every sample,
// and the returned replies are what each machine holds afterwards. A machine
// whose sample is its whole run (at most q items: a property of the input)
// has already sent the coordinator every key it holds, so the coordinator
// cuts the run for it (runCuts, into the machine's share of cutBuf) and, if
// spans is non-nil, works out its spans too (splitterSpans, into entries 2i
// and 2i+1); the reply is 2 words a cut and 3 a span, at most
// 2·min(items, K)+7, where the list is 3·(K-1)+1. A machine that holds more
// is sent the list and derives both itself. The replies go out in one direct
// round if together they fit half the coordinator's capacity
// (BroadcastValue's rule; machine 0 keeps its own when it is the
// coordinator). If they do not, the list is broadcast to everyone — K copies
// of it fit still less, so down the tree — and every reply is the list.
func sortReplies(c *mpc.Cluster, sp []SortKey, samples []sample, cutBuf []cut, starts []int, spans []span) ([]sortReply, error) {
	k := c.K()
	replies := make([]sortReply, k)
	msgs := make([]mpc.Msg, 0, k)
	total := 0
	for i := range replies {
		r, words := &replies[i], 1
		if samples[i].whole() {
			r.Cuts = runCuts(cutBuf[starts[i]:starts[i]:starts[i+1]], samples[i].Keys, sp, k, func(s SortKey) SortKey { return s })
			words += cutWords * len(r.Cuts)
			if spans != nil {
				for s, si := range splitterSpans(sp, k, i) {
					spans[2*i+s] = si
					if si.B > si.A {
						words += spanWords
					}
				}
			}
		} else {
			r.List = sp
			words += sortKeyWords * len(sp)
		}
		if i == coordinator(c) {
			continue // machine 0 keeps its own reply locally
		}
		msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: r})
		total += words
	}
	if total <= coordCap(c)/2 {
		round := c.Span("broadcast")
		_, err := fromCoordinator(c, msgs)
		round.End()
		return replies, err
	}
	lists, err := BroadcastValue(c, sp, len(sp)*sortKeyWords+1)
	if err != nil {
		return nil, err
	}
	for i := range replies {
		replies[i] = sortReply{List: lists[i]}
	}
	return replies, nil
}

// runCuts appends to dst the cuts of a locally sorted run against the
// splitter list sp: one per non-empty bucket, in bucket order (walkBuckets).
// A machine that was sent the list calls it over its items, the coordinator
// over a sample that is a machine's whole run.
func runCuts[T any](dst []cut, run []T, sp []SortKey, nb int, key func(T) SortKey) []cut {
	walkBuckets(run, sp, nb, key, func(j int, r []T) {
		dst = append(dst, cut{Bucket: int32(j), Count: int32(len(r))})
	})
	return dst
}

// sample is one machine's evenly spaced key sample and item count.
type sample struct {
	Keys  []SortKey
	Count int
}

// whole reports whether the sample is every key the machine holds, in order.
func (s *sample) whole() bool { return s.Count == len(s.Keys) }

// weightedKey is a sampled key standing for weight items of its machine.
type weightedKey struct {
	key    SortKey
	weight float64
}

// collectSamples is the coordinator's side of the sample round: every
// sampled key weighted by its machine's load, in delivery order, and the
// total item count.
func collectSamples(inbox []mpc.Msg) (samples []weightedKey, total int, err error) {
	n := 0
	for _, m := range inbox {
		s, ok := m.Data.(*sample)
		if !ok || s == nil {
			return nil, 0, fmt.Errorf("prims: unexpected sample payload %T", m.Data)
		}
		n += len(s.Keys)
	}
	samples = make([]weightedKey, 0, n)
	for _, m := range inbox {
		s := m.Data.(*sample)
		total += s.Count
		if len(s.Keys) == 0 {
			continue
		}
		w := float64(s.Count) / float64(len(s.Keys))
		for _, kk := range s.Keys {
			samples = append(samples, weightedKey{key: kk, weight: w})
		}
	}
	return samples, total, nil
}

// IsGloballySorted verifies the Sort postcondition (used by tests).
func IsGloballySorted[T any](data [][]T, key func(T) SortKey) bool {
	var last *SortKey
	for i := range data {
		for j := range data[i] {
			kk := key(data[i][j])
			if last != nil && kk.Less(*last) {
				return false
			}
			last = &kk
		}
	}
	return true
}
