package prims

import (
	"cmp"
	"fmt"
	"math"

	"hetmpc/internal/mpc"
)

// SortKey is the compact, 3-word lexicographic sort key extracted from every
// item. Keeping splitters to 3 words (rather than whole items, which may
// carry large payloads such as labels) keeps the splitter broadcast within
// the small machines' capacity. A run of keys is sent as three columns, a
// constant one once (keyWords).
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

// identKey keys a sort key by itself, as the coordinator walks samples.
func identKey(k SortKey) SortKey { return k }

// keyWords is what a run of sort keys costs on the wire, sent as its three
// columns: a component that is constant over the run is sent once, any other
// once per key. Which columns are constant rides in the message's header
// word, so an empty run costs nothing, one key its 3 words, and no run more
// than sortKeyWords a key. A machine's plan requests (x, 1, requester) and
// every (x, 0, 0) key are one word a key and two.
func keyWords(keys []SortKey) int {
	if len(keys) == 0 {
		return 0
	}
	var a, b, c bool // the column varies over the run
	for _, k := range keys[1:] {
		a, b, c = a || k.A != keys[0].A, b || k.B != keys[0].B, c || k.C != keys[0].C
	}
	words := 0
	for _, varies := range [...]bool{a, b, c} {
		if varies {
			words += len(keys)
		} else {
			words++
		}
	}
	return words
}

// Sort implements Claim 1: it sorts the items stored on the small machines
// by their SortKey so that afterwards machine i's items all precede machine
// i+1's items and each machine's slice is locally sorted. It is a sample
// sort:
//
//  1. local sort;
//  2. every machine sends the coordinator a weighted key sample, its whole
//     run when wholeRun says so (1 round);
//  3. the coordinator picks K-1 splitter keys and replies to every machine
//     (1 round, or 2 when relays carry the list): a machine whose sample was
//     its whole run gets the cuts of that run, as (bucket, count) pairs or
//     one bucket id per item, whichever is shorter, and any other the
//     splitter list, to cut its run itself. When the replies together exceed
//     the coordinator's round budget the list goes to everyone instead, down
//     a capacity-bounded tree;
//  4. items are routed to their bucket along the cuts (1 round) and
//     re-sorted.
//
// itemWords is the accounted size of one item.
func Sort[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, error) {
	sorted, _, err := sortSplit(c, data, itemWords, key, split{})
	return sorted, err
}

// split is how a sortSplit picks its buckets beyond Sort's: align > 0 cuts
// the splitters at the boundaries of every key with at most align items
// (pickSplitters), spans tells every machine the spans it sits in, and
// grouped cuts them at every boundary of the A column — the groups — and
// samples that column only (Arrange's mode, DESIGN.md §1).
type split struct {
	align   int
	spans   bool
	grouped bool
}

// layout is what a Sort leaves behind besides the buckets: the coordinator's
// splitter list, every machine's cuts of its locally sorted run (data[i],
// sorted in place) and, if asked for, the spans — entries 2i and 2i+1 are
// machine i's.
type layout struct {
	sp    []SortKey
	cuts  [][]Cut
	spans []span
}

// sortSplit is Sort that also returns its layout and, with how.spans, tells
// every machine the spans it sits in: bucket j holds exactly the keys in
// [sp[j-1], sp[j]) (the splitter list sp clipped to K-1, as walkBuckets clips
// it), so which keys can straddle which machines is a function of the list
// alone (splitterSpans). A grouped Sort whose group-aligned buckets might not
// fit their receivers (groupsFit) samples again with full keys, one more
// round under "full", and splits by them.
func sortSplit[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey, how split) ([][]T, layout, error) {
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
	cutBuf := make([]Cut, starts[k])

	// Steps 2–3: sample, pick the splitters, reply.
	lay := layout{cuts: make([][]Cut, k)}
	var samples []sample
	var err error
	if lay.sp, samples, err = sortSplitters(c, data, key, how); err != nil {
		return nil, layout{}, err
	}
	if how.grouped && !groupsFit(c, lay.sp, samples, itemWords) {
		full := c.Span("full")
		lay.sp, samples, err = sortSplitters(c, data, key, split{align: how.align})
		full.End()
		if err != nil {
			return nil, layout{}, err
		}
	}
	if how.spans {
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
			if how.spans {
				si := splitterSpans(list, k, i)
				copy(lay.spans[2*i:], si[:])
			}
		}
	})
	result, err := Route(c, data, lay.cuts, itemWords, 0, key)
	if err != nil {
		return nil, layout{}, err
	}
	// The routed, locally sorted buckets are now the machines' state.
	registerState(c, result, itemWords)
	return result, lay, nil
}

// Route is Sort's step 4, the one round that moves items along cuts: every
// machine sends its locally sorted run data[i] to the buckets cuts[i] names,
// one chunk a cut, and each bucket comes back re-sorted. The round's
// messages, their chunk payloads and the buckets are one array each: the
// receive side counts each inbox (the checked pass — a foreign payload is an
// error before anything is copied), carves the buckets cap-clamped with spare
// free slots past each, then copies and re-sorts each in place.
func Route[T any](c *mpc.Cluster, data [][]T, cuts [][]Cut, itemWords, spare int, key func(T) SortKey) ([][]T, error) {
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
			out = append(out, chunkMsg(&slab[starts[i]+len(out)], int(ct.Bucket), data[i][lo:hi:hi], int(ct.Count)*itemWords))
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
// the coordinator, which picks the K-1 placement-weighted splitters
// (pickSplitters, aligned at key boundaries under how.align). A sampled key
// is the middle of the block of items it stands for. A grouped sample keeps
// each key's A column only, as (A, MinInt64, MinInt64) — the least key of
// its group — so every splitter picked from it is a group's least key. It
// returns the coordinator's list and the samples it was sent, by machine.
func sortSplitters[T any](c *mpc.Cluster, data [][]T, key func(T) SortKey, how split) ([]SortKey, []sample, error) {
	k := c.K()
	// Step 2: weighted key samples to the coordinator (sample extraction is
	// local computation, parallel over the small-machine axis).
	// The round's samples are one slab and their keys one array, carved
	// here (serially) so the parallel extraction only fills them in.
	outs := perMachineOuts(k)
	slab := make([]sample, k)
	nkeys := 0
	for i := range slab {
		nkeys += sampleSize(c, len(data[i]))
	}
	keyBuf := make([]SortKey, nkeys)
	for i := range slab {
		take := sampleSize(c, len(data[i]))
		slab[i] = sample{Keys: keyBuf[:take:take], Count: len(data[i])}
		keyBuf = keyBuf[take:]
	}
	c.Each(func(i int) {
		keys, n := slab[i].Keys, len(data[i])
		for j := range keys {
			keys[j] = key(data[i][(2*j+1)*n/(2*len(keys))])
			if how.grouped {
				keys[j].B, keys[j].C = math.MinInt64, math.MinInt64
			}
		}
		outs[i][0] = mpc.Msg{To: coordinator(c), Words: keyWords(keys) + 1, Data: &slab[i]}
	})
	inbox, err := toCoordinator(c, outs)
	if err != nil {
		return nil, nil, err
	}

	// Step 3: coordinator picks splitters weighted by machine loads.
	samples, err := inboxSamples(inbox)
	if err != nil {
		return nil, nil, err
	}
	return pickSplitters(c, samples, how.align), slab, nil
}

// groupsFit is the coordinator's load check on group-aligned splitters sp:
// whether every bucket's load bound, in items of itemWords words, fits its
// receiver's capacity in the route round. A whole sample counts its keys in
// the bucket exactly. A machine that sampled q of its n items holds at most
// ⌈n/q⌉ items between two of its sampled keys, so at most (s+1)·⌈n/q⌉ in a
// bucket where s of its sampled keys fall.
func groupsFit(c *mpc.Cluster, sp []SortKey, samples []sample, itemWords int) bool {
	k := c.K()
	load, base := make([]int, k), 0 // bucket j's bound is base + load[j]
	for i := range samples {
		s, w := &samples[i], 1
		if !s.whole() {
			w = (s.Count + len(s.Keys) - 1) / len(s.Keys)
			base += w
		}
		walkBuckets(s.Keys, sp, k, identKey, func(j int, r []SortKey) { load[j] += w * len(r) })
	}
	for j, l := range load {
		if (base+l)*itemWords > c.SmallCapOf(j) {
			return false
		}
	}
	return true
}

// wholeRun is step 2's rule (DESIGN.md §1): whether a machine that holds n
// items sends the coordinator its whole run, and q, the evenly spaced keys
// it samples if not. Both are bounded by the capacity term, the keys a
// machine may send so that K samples at sortKeyWords a key (the most keyWords
// charges) plus a header fit half the coordinator's round whatever the keys'
// columns hold; q is also at most 64. A run within q is whole. A longer one
// is whole while its worst case — sortKeyWords a key up and at most a word
// an item of cuts down, 4n — is no more than the sampled path's: q keys up
// and the list of K-1 splitters down, 3(q+K-1).
func wholeRun(c *mpc.Cluster, n int) (whole bool, q int) {
	k := c.K()
	capTerm := max(coordCap(c)/(2*k*(sortKeyWords+1)), 1)
	q = min(capTerm, 64)
	return n <= capTerm && (n <= q || sortKeyWords*n+n <= sortKeyWords*(q+k-1)), q
}

// sampleSize is how many keys a machine that holds n items samples: all n
// when it sends its whole run (wholeRun), q otherwise.
func sampleSize(c *mpc.Cluster, n int) int {
	if whole, q := wholeRun(c, n); !whole {
		return q
	}
	return n
}

// inboxSamples is the coordinator's side of the sample round: the merge of
// the samples it was sent, a cursor on each in delivery order.
func inboxSamples(inbox []mpc.Msg) (sampleMerge, error) {
	m := sampleMerge{cur: make([]sampleCursor, len(inbox))}
	for j, msg := range inbox {
		s, ok := msg.Data.(*sample)
		if !ok || s == nil {
			return sampleMerge{}, fmt.Errorf("prims: unexpected sample payload %T", msg.Data)
		}
		m.cur[j] = sampleCursor{s: s}
		if len(s.Keys) > 0 {
			m.cur[j].weight = float64(s.Count) / float64(len(s.Keys))
		}
	}
	m.play()
	return m, nil
}

// pickSplitters walks the samples' keys in sorted order — a K-way merge of
// the sorted samples, equal keys in delivery order, as a stable sort of
// their concatenation orders them — each key standing for its machine's
// count over its sample size, and takes a splitter wherever the running
// weight crosses a bucket's target. The targets are placement-weighted:
// bucket i should hold a PlaceShare(i)/Σ share of the items under the
// cluster's placement policy (DESIGN.md §8) — capacity shares under the
// default cap policy (Frisk's balancing rule), min(capacity, effective
// speed) under throughput/speculate — so skewed machines receive only what
// they can absorb (or move in time). With uniform weights (all exactly 1)
// this reduces to the even split total/k.
//
// With align > 0 the list is cut at key boundaries: the splitters taken
// inside the run of a key x (the A column) all move down to (x, 0, 0) when
// at most align items can carry x, so every item of x lands in one bucket.
// The merge counts x's keys in whole samples exactly, and a machine whose
// sample is not its whole run, or that sent none, counts as one: for plan
// requests, at most one a machine, that bounds x's items. A key whose bound
// exceeds align keeps its splitters.
func pickSplitters(c *mpc.Cluster, m sampleMerge, align int) []SortKey {
	k := c.K()
	total, loose := 0, k
	for _, cur := range m.cur {
		total += cur.s.Count
		if cur.s.whole() {
			loose--
		}
	}
	splitters := make([]SortKey, 0, k-1)
	if total == 0 {
		return splitters
	}
	var totalShare float64
	prefix := make([]float64, k) // prefix[j] = Σ_{i<j} PlaceShare(i)
	for i := 0; i < k; i++ {
		prefix[i] = totalShare
		totalShare += c.PlaceShare(i)
	}
	target := float64(total) / totalShare

	// x's run of merged keys took splitters[from:], n of its keys from whole
	// samples; align closes it.
	var x int64
	from, n := 0, 0
	closeRun := func() {
		if align > 0 && n+loose <= align {
			for j := from; j < len(splitters); j++ {
				splitters[j] = SortKey{A: x}
			}
		}
	}
	var cum float64
	next := 1
	for cur, kk, ok := m.pop(); ok; cur, kk, ok = m.pop() {
		if kk.A != x {
			closeRun()
			x, from, n = kk.A, len(splitters), 0
		}
		if cur.s.whole() {
			n++
		}
		cum += cur.weight
		for next < k && cum >= prefix[next]*target {
			splitters = append(splitters, kk)
			next++
		}
	}
	closeRun()
	return splitters
}

// Cut is one step of a machine's route: the next Count items of its locally
// sorted run go to machine Bucket.
type Cut struct{ Bucket, Count int32 }

const (
	cutWords  = 2
	spanWords = 3
)

// runCutWords is what the cuts of a whole run of items cost on the wire, in
// the shorter of two forms that decode to the same cuts: cutWords a cut, or
// one bucket id per item (the run's cuts are the id column's runs). The form
// rides in the reply's header word.
func runCutWords(cuts []Cut, items int) int { return min(cutWords*len(cuts), items) }

// sortReply is the coordinator's answer to one machine's sample: the cuts of
// the machine's run or, for a machine that holds more than it sampled, the
// splitter list to derive them from. The list is never nil (sortSplitters
// makes it), so a nil List says the reply is cuts.
type sortReply struct {
	Cuts []Cut
	List []SortKey
}

// sortReplies is the rest of step 3: the coordinator answers every sample,
// and the returned replies are what each machine holds afterwards. A machine
// whose sample is its whole run (wholeRun: a property of the input) has
// already sent the coordinator every key it holds, so the coordinator
// cuts the run for it (runCuts, into the machine's share of cutBuf) and, if
// spans is non-nil, works out its spans too (splitterSpans, into entries 2i
// and 2i+1); the reply is a header word, runCutWords of the cuts and 3 words
// a span, at most min(2·K, items)+7, where the list is keyWords(sp)+1. A
// machine that holds more is sent the list and derives both itself. The
// replies go out directly if together they fit half the coordinator's
// capacity (machine 0 keeps its own when it is the coordinator), in one
// round or, when that moves fewer words through the busiest sender, in two
// through relays (sendReplies). If they do not fit, the list is broadcast
// to everyone — K copies of it fit still less, so down the tree — and every
// reply is the list.
func sortReplies(c *mpc.Cluster, sp []SortKey, samples []sample, cutBuf []Cut, starts []int, spans []span) ([]sortReply, error) {
	k := c.K()
	replies := make([]sortReply, k)
	msgs := make([]mpc.Msg, 0, k)
	total, listWords := 0, keyWords(sp)
	for i := range replies {
		r, words := &replies[i], 1
		if samples[i].whole() {
			r.Cuts = runCuts(cutBuf[starts[i]:starts[i]:starts[i+1]], samples[i].Keys, sp, k, identKey)
			words += runCutWords(r.Cuts, len(samples[i].Keys))
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
			words += listWords
		}
		if i == coordinator(c) {
			continue // machine 0 keeps its own reply locally
		}
		msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: r})
		total += words
	}
	if total <= coordCap(c)/2 {
		round := c.Span("broadcast")
		err := sendReplies(c, msgs, replies, listWords+1)
		round.End()
		return replies, err
	}
	lists, err := BroadcastValue(c, sp, listWords+1)
	if err != nil {
		return nil, err
	}
	for i := range replies {
		replies[i] = sortReply{List: lists[i]}
	}
	return replies, nil
}

// sendReplies sends the coordinator's replies msgs, each carrying its
// receiver's entry of replies, where a list reply costs listMsg words
// (DESIGN.md §1). Let ℓ be the list receivers. They split, in machine
// order, into r = ⌈√ℓ⌉ groups of at most g = ⌈ℓ/r⌉, the first machine of
// each its relay. The relay form sends the cuts and one list a relay from
// the coordinator, then (under "relay") each relay's list to the rest of
// its group; the replies and their words are the direct round's, only the
// list's senders differ. It is taken when its two rounds' busiest senders
// together move fewer words than the direct round's coordinator,
// cuts + r·listMsg + (g−1)·listMsg < cuts + ℓ·listMsg, and each relay's
// sends fit half its capacity; otherwise the replies take one round.
func sendReplies(c *mpc.Cluster, msgs []mpc.Msg, replies []sortReply, listMsg int) error {
	ell := 0
	for _, m := range msgs {
		if replies[m.To].List != nil {
			ell++
		}
	}
	r := 1
	for r*r < ell {
		r++
	}
	g := (ell + r - 1) / r
	relay := r+g-1 < ell
	for j, n := 0, 0; relay && j < len(msgs); j++ {
		if to := msgs[j].To; replies[to].List != nil {
			relay = n%g != 0 || 2*(min(g, ell-n)-1)*listMsg <= c.SmallCapOf(to)
			n++
		}
	}
	if !relay {
		_, err := fromCoordinator(c, msgs)
		return err
	}
	// The coordinator's round keeps its messages in place in msgs; the
	// relays' round is one array, fwd.
	direct, fwd := msgs[:0], make([]mpc.Msg, 0, ell)
	outs := make([][]mpc.Msg, c.K())
	from, start, n := 0, 0, 0 // the group's relay, its first entry of fwd; the list receivers so far
	for _, m := range msgs {
		if replies[m.To].List != nil {
			pos := n
			n++
			if pos%g != 0 {
				fwd = append(fwd, mpc.Msg{To: m.To, Words: m.Words, Data: &replies[from]})
				outs[from] = fwd[start:len(fwd):len(fwd)]
				continue
			}
			from, start = m.To, len(fwd)
		}
		direct = append(direct, m)
	}
	if _, err := fromCoordinator(c, direct); err != nil {
		return err
	}
	defer c.Span("relay").End()
	_, _, err := c.Exchange(outs, nil)
	return err
}

// runCuts appends to dst the cuts of a locally sorted run against the
// splitter list sp: one per non-empty bucket, in bucket order (walkBuckets).
// A machine that was sent the list calls it over its items, the coordinator
// over a sample that is a machine's whole run.
func runCuts[T any](dst []Cut, run []T, sp []SortKey, nb int, key func(T) SortKey) []Cut {
	walkBuckets(run, sp, nb, key, func(j int, r []T) {
		dst = append(dst, Cut{Bucket: int32(j), Count: int32(len(r))})
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

// sampleMerge is a K-way merge of sorted samples: a loser tree over the
// samples' heads, ordered by key and then delivery order, so equal keys come
// out in delivery order, as a stable sort of the samples' concatenation has
// them. A pop replays one leaf-to-root path, one comparison a level.
type sampleMerge struct {
	cur  []sampleCursor
	tree []mergeNode // tree[0] is the winner, tree[x] for 0 < x < K the loser at node x
}

// sampleCursor is a sample's next position and the items each of its keys
// stands for.
type sampleCursor struct {
	s      *sample
	pos    int32
	weight float64
}

// mergeNode is sample j's head in the tournament: its next key, or, once
// the sample is spent, the largest key.
type mergeNode struct {
	key   SortKey
	spent bool
	j     int32
}

func (cur *sampleCursor) head(j int32) mergeNode {
	if int(cur.pos) == len(cur.s.Keys) {
		return mergeNode{key: SortKey{A: math.MaxInt64, B: math.MaxInt64, C: math.MaxInt64}, spent: true, j: j}
	}
	return mergeNode{key: cur.s.Keys[cur.pos], j: j}
}

// less orders heads by key, a spent sample after every live one, then by
// delivery order.
func (a *mergeNode) less(b *mergeNode) bool {
	switch {
	case a.key.A != b.key.A:
		return a.key.A < b.key.A
	case a.key.B != b.key.B:
		return a.key.B < b.key.B
	case a.key.C != b.key.C:
		return a.key.C < b.key.C
	case a.spent != b.spent:
		return b.spent
	}
	return a.j < b.j
}

// play plays the tournament over the samples' first keys: leaf j sits at
// node K+j and node x's children are 2x and 2x+1. The nodes first take
// their subtree's winner, bottom-up; then, top-down, each keeps the loser
// of its children's winners.
func (m *sampleMerge) play() {
	n := len(m.cur)
	if n == 0 {
		return
	}
	m.tree = make([]mergeNode, 2*n)
	for j := range m.cur {
		m.tree[n+j] = m.cur[j].head(int32(j))
	}
	for x := n - 1; x >= 1; x-- {
		if a, b := &m.tree[2*x], &m.tree[2*x+1]; b.less(a) {
			m.tree[x] = *b
		} else {
			m.tree[x] = *a
		}
	}
	m.tree[0] = m.tree[1] // the root's winner (with one sample, its leaf)
	for x := 1; x < n; x++ {
		if a, b := &m.tree[2*x], &m.tree[2*x+1]; b.less(a) {
			m.tree[x] = *a
		} else {
			m.tree[x] = *b
		}
	}
}

// pop returns the smallest key left and its sample's cursor, or
// ok == false.
func (m *sampleMerge) pop() (cur *sampleCursor, key SortKey, ok bool) {
	if len(m.cur) == 0 || m.tree[0].spent {
		return nil, SortKey{}, false
	}
	j := m.tree[0].j
	cur, key = &m.cur[j], m.tree[0].key
	cur.pos++
	w := cur.head(j)
	for x := (int(j) + len(m.cur)) / 2; x >= 1; x /= 2 {
		if m.tree[x].less(&w) {
			m.tree[x], w = w, m.tree[x]
		}
	}
	m.tree[0] = w
	return cur, key, true
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
