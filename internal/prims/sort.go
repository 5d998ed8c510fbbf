package prims

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// sort whose splitters are agreed by r = ⌈√K⌉ group leaders, or by the
// coordinator alone (sortLeaders, DESIGN.md §1):
//
//  1. local sort;
//  2. every machine sends its group's leader a weighted key sample, its
//     whole run when wholeRun says so (1 round); with more than one group,
//     every leader sends every other a summary of its group's samples (1
//     round, under "summary"), and every leader picks the same K-1
//     splitters from the r summaries;
//  3. every leader replies to its group (1 round): a machine whose sample
//     was its whole run gets the cuts of that run, as (bucket, count) pairs
//     or one bucket id per item, whichever is shorter, and any other the
//     splitter list, to cut its run itself. A leader whose replies exceed
//     its round budget sends its group the list instead, down a
//     capacity-bounded tree;
//  4. items are routed to their bucket along the cuts (1 round) and
//     re-sorted.
//
// itemWords is the accounted size of one item.
func Sort[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, error) {
	sorted, _, err := sortSplit(c, data, itemWords, key, split{})
	return sorted, err
}

// SortOneColumn is Sort for keys that vary in column A only, B and C
// constant, as AggregateByKey's and connectivity's incidences' do: its
// buckets are Sort's, but its leaders' held state counts a key one word
// (split.oneCol), so ⌈√K⌉ leaders fit where a plain Sort's 3-word count
// leaves the coordinator alone.
func SortOneColumn[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, error) {
	sorted, _, err := sortSplit(c, data, itemWords, key, split{oneCol: true})
	return sorted, err
}

// split is how a sortSplit picks its buckets beyond Sort's: align > 0 cuts
// the splitters at the boundaries of every key with at most align items
// (pickSplitters), spans tells every machine the spans it sits in (a plan's
// Sort), and grouped cuts them at every boundary of the A column — the
// groups — and samples that column only (Arrange's mode, DESIGN.md §1).
// oneCol says the keys vary in column A only (SortOneColumn's, which
// AggregateByKey calls); it changes no bucket, only what sortLeaders counts
// a key (widths).
type split struct {
	align   int
	spans   bool
	grouped bool
	oneCol  bool
}

// widths is the most words a key of the Sort's samples and summaries costs
// (keyWords), a word for each column that can vary over them: column A
// alone in a grouped Sort and in SortOneColumn's (x, 0, 0) keys; for a
// plan's (x, 1, requester) requests, A in a machine's sample and A and C in
// a summary; every column in any other Sort.
func (how split) widths() (sample, summary int) {
	switch {
	case how.grouped || how.oneCol:
		return 1, 1
	case how.spans:
		return 1, 2
	}
	return sortKeyWords, sortKeyWords
}

// runWords bounds keyWords over a run of n keys of width w: w words a key,
// and one for each of the sortKeyWords−w columns that then stay constant.
func runWords(w, n int) int { return w*n + sortKeyWords - w }

// layout is what a Sort leaves behind besides the buckets: the leaders'
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
// fit their receivers (groupsFit) samples again with full keys, under
// "full", and splits by them.
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

	// Steps 2–3: sample, agree on the splitters, reply. The full keys'
	// samples are sortKeyWords a key, so their leaders are picked again.
	ld := sortLeaders(c, how)
	lay := layout{cuts: make([][]Cut, k)}
	var samples []sample
	fits, err := true, error(nil)
	if lay.sp, samples, fits, err = sortSplitters(c, ld, data, key, how, itemWords); err != nil {
		return nil, layout{}, err
	}
	if !fits {
		// Only Arrange's grouped Sort re-picks, and it is not aligned: the
		// full keys' pass is a plain Sort's.
		ld = sortLeaders(c, split{})
		full := c.Span("full")
		lay.sp, samples, _, err = sortSplitters(c, ld, data, key, split{}, itemWords)
		full.End()
		if err != nil {
			return nil, layout{}, err
		}
	}
	if how.spans {
		lay.spans = make([]span, 2*k)
	}
	replies, err := sortReplies(c, ld, lay.sp, samples, cutBuf, starts, lay.spans)
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

// leaders is how a Sort's steps 2–3 are spread (DESIGN.md §1): the machines
// split, in machine order, into groups of g, and machine i sends its sample
// to ids[i/g], its group's leader. One group is led by the coordinator.
type leaders struct {
	g   int
	ids []int
}

// sortLeaders picks a Sort's leaders from the cluster and how alone, so
// every machine picks the same ones before any round: r = ⌈√K⌉ groups of
// g = ⌈K/r⌉ machines, each led by its machine of the lowest WordCost (the
// first of a tie). The coordinator stays the one leader when any of three
// inequalities holds:
//   - it is at least r× cheaper a word than the dearest leader, so reading
//     every sample itself costs it no more than a leader's share does;
//   - an aligned Sort has align < K, so a key may have more than align items
//     and only whole runs at one machine count them exactly (pickSplitters);
//   - a leader could not hold, within half its capacity, what steps 2–3 put
//     on it at their worst (heldWords). Replies of the list that do not fit
//     go down a tree (sortReplies), so the list is not counted.
func sortLeaders(c *mpc.Cluster, how split) leaders {
	k := c.K()
	one := leaders{g: k, ids: []int{coordinator(c)}}
	r := 1
	for r*r < k {
		r++
	}
	g := (k + r - 1) / r
	if r = (k + g - 1) / g; r == 1 || how.align > 0 && how.align < k {
		return one
	}
	ids := make([]int, r)
	dearest, room := 0.0, math.MaxInt
	for j := range ids {
		lo, hi := j*g, min(k, (j+1)*g)
		ids[j] = lo
		for i := lo + 1; i < hi; i++ {
			if c.WordCost(i) < c.WordCost(ids[j]) {
				ids[j] = i
			}
		}
		dearest, room = max(dearest, c.WordCost(ids[j])), min(room, c.SmallCapOf(ids[j]))
	}
	if float64(r)*c.WordCost(coordinator(c)) <= dearest || 2*how.heldWords(k, g, r, room) > room {
		return one
	}
	return leaders{g: g, ids: ids}
}

// heldWords bounds what steps 2–3 put on one of r leaders of groups of g
// machines, with capacity room (sortLeaders): g samples of capTerm keys
// (wholeRun) and their headers, r−1 summaries of 4g keys and their two
// header words, keys counted at the Sort's widths, and g replies of a whole
// run's cuts and spans.
func (how split) heldWords(k, g, r, room int) int {
	sw, mw := how.widths()
	return g*(runWords(sw, capTerm(room, g))+1) + (r-1)*(runWords(mw, 4*g)+2) + g*(1+2*k+2*spanWords)
}

// capTerm is the most keys one of a leader's g machines may sample so that
// the group's g samples, at sortKeyWords a key plus a header, fit half of
// the leader's room (wholeRun).
func capTerm(room, g int) int { return room / (2 * g * (sortKeyWords + 1)) }

// r is the number of leaders.
func (ld leaders) r() int { return len(ld.ids) }

// group returns group j's machines, [lo, hi) of k.
func (ld leaders) group(k, j int) (lo, hi int) { return j * ld.g, min(k, (j+1)*ld.g) }

// leaderCap is machine id's capacity: the large machine's or a small one's.
func leaderCap(c *mpc.Cluster, id int) int {
	if id == mpc.Large {
		return c.LargeCap()
	}
	return c.SmallCapOf(id)
}

// wholeRun is step 2's rule (DESIGN.md §1): whether machine i, holding n
// items, sends its leader its whole run, and q, the evenly spaced keys it
// samples if not. Both are bounded by the capacity term, the keys a machine
// may send so that its group's g samples at sortKeyWords a key (the most
// keyWords charges) plus a header fit half its leader's round whatever the
// keys' columns hold; q is also at most 64. A run within q is whole. A
// longer one is whole while its worst case — sortKeyWords a key up and at
// most a word an item of cuts down, 4n — is no more than the sampled path's:
// q keys up and the list of K-1 splitters down, 3(q+K-1).
func (ld leaders) wholeRun(c *mpc.Cluster, i, n int) (whole bool, q int) {
	k := c.K()
	most := max(capTerm(leaderCap(c, ld.ids[i/ld.g]), ld.g), 1)
	q = min(most, 64)
	return n <= most && (n <= q || sortKeyWords*n+n <= sortKeyWords*(q+k-1)), q
}

// sampleSize is how many keys machine i, holding n items, samples: all n
// when it sends its whole run (wholeRun), q otherwise.
func (ld leaders) sampleSize(c *mpc.Cluster, i, n int) int {
	if whole, q := ld.wholeRun(c, i, n); !whole {
		return q
	}
	return n
}

// sortSplitters is step 2 of Sort over locally sorted data: every machine
// sends its leader a weighted key sample, and the leaders agree on the K-1
// placement-weighted splitters (pickSplitters, aligned at key boundaries
// under how.align) — one leader from the samples it was sent, r > 1 from
// the summaries they exchange (summarise). A sampled key is the middle of
// the block of items it stands for. A grouped sample keeps each key's A
// column only, as (A, MinInt64, MinInt64) — the least key of its group — so
// every splitter picked from it is a group's least key. It returns the
// list, the samples by machine and whether the buckets fit their receivers:
// always, unless a grouped Sort's load check says not (groupsFit, over what
// the leaders merged).
func sortSplitters[T any](c *mpc.Cluster, ld leaders, data [][]T, key func(T) SortKey, how split, itemWords int) ([]SortKey, []sample, bool, error) {
	k := c.K()
	// The round's samples are one slab and their keys one array, carved
	// here (serially) so the parallel extraction only fills them in.
	outs := perMachineOuts(k)
	slab := make([]sample, k)
	off := make([]int, k+1) // machine i's keys sit at [off[i], off[i+1])
	for i := range slab {
		off[i+1] = off[i] + ld.sampleSize(c, i, len(data[i]))
	}
	keyBuf := make([]SortKey, off[k])
	for i := range slab {
		slab[i] = sample{Keys: keyBuf[off[i]:off[i+1]:off[i+1]], Count: len(data[i])}
	}
	c.Each(func(i int) {
		keys, n := slab[i].Keys, len(data[i])
		for j := range keys {
			keys[j] = key(data[i][(2*j+1)*n/(2*len(keys))])
			if how.grouped {
				keys[j].B, keys[j].C = math.MinInt64, math.MinInt64
			}
		}
		outs[i][0] = mpc.Msg{To: ld.ids[i/ld.g], Words: keyWords(keys) + 1, Data: &slab[i]}
	})
	ins, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, nil, false, err
	}

	// The r leaders merge their groups' samples in leader order, merge j
	// for leader j, and the first error is returned; the merges' samples
	// and indexes are one array each, a group's stretch of the index carved
	// by the keys its machines sent.
	merges := make([]sampleMerge, ld.r())
	ptrs, refs := make([]*sample, k), make([]mergeRef, off[k])
	for j, id := range ld.ids {
		inbox := inLarge
		if id != mpc.Large {
			inbox = ins[id]
		}
		lo, hi := ld.group(k, j)
		if merges[j], err = inboxSamples(inbox, ptrs[lo:hi], refs[off[lo]:off[lo]:off[hi]]); err != nil {
			return nil, nil, false, err
		}
	}
	view := slab
	if ld.r() > 1 {
		if merges[0], view, err = summarise(c, ld, slab, merges, how.grouped); err != nil {
			return nil, nil, false, err
		}
	}
	sp := pickSplitters(c, merges[0], how.align)
	return sp, slab, !how.grouped || groupsFit(c, sp, view, itemWords), nil
}

// summaries is the r > 1 leaders' local step before the summary round.
// Leader j walks its group's merged samples (merges[j]) and keeps s keys of
// equal weight W/s, W its group's items: s = g when every sample of the
// group is a whole run and 4g when one is not, or every key when the whole
// group holds at most g items. Key t is where the running weight first
// reaches (t + (j+½)/r)·W/s, so the r summaries are staggered and their
// keys interleave. A grouped Sort's summary also carries, in one more word,
// the most items of the group between two consecutive keys (Gap, the bound
// groupsFit puts on a sample).
func summaries(c *mpc.Cluster, ld leaders, slab []sample, merges []sampleMerge, grouped bool) []sample {
	k, r, most := c.K(), ld.r(), 4*ld.g
	// The summaries, their keys and a grouped Sort's loads are one array
	// each, carved by the most keys a summary can hold.
	sums := make([]sample, r)
	keyBuf := make([]SortKey, r*most)
	var loadBuf []int
	if grouped {
		loadBuf = make([]int, r*(most+1))
	}
	c.Each(func(i int) {
		j := i / ld.g
		if i != ld.ids[j] {
			return
		}
		lo, hi := ld.group(k, j)
		group, w, s := slab[lo:hi], 0, ld.g
		for x := range group {
			w += group[x].Count
			if !group[x].whole() {
				s = most
			}
		}
		if s == ld.g && w <= s {
			s = w
		}
		keys := keyBuf[j*most : j*most+s]
		step, stagger := float64(w)/float64(max(s, 1)), (float64(j)+0.5)/float64(r)
		t, cum, m := 0, 0.0, &merges[j]
		for _, ref := range m.order {
			for cum += m.samples[ref.j].weight(); t < s && cum >= (float64(t)+stagger)*step; t++ {
				keys[t] = m.key(ref)
			}
		}
		for ; t > 0 && t < s; t++ { // rounding left the last targets short
			keys[t] = keys[t-1]
		}
		sums[j] = sample{Keys: keys, Count: w}
		if grouped && !sums[j].whole() {
			load := loadBuf[j*(most+1) : j*(most+1)+s+1]
			sums[j].Gap = bucketLoads(group, keys, load) + slices.Max(load)
		}
	})
	return sums
}

// summaryWords is what a summary costs on the wire: its keys under its
// count, and a grouped Sort's Gap word.
func summaryWords(s *sample, grouped bool) int {
	if grouped {
		return keyWords(s.Keys) + 2
	}
	return keyWords(s.Keys) + 1
}

// summarise is the r > 1 leaders' half of step 2: their summaries
// (summaries), then one round under "summary" in which every leader sends
// its summary to every other. It returns the merge of the r summaries in
// leader order, which every leader holds and the simulator builds once, and
// the summaries.
func summarise(c *mpc.Cluster, ld leaders, slab []sample, merges []sampleMerge, grouped bool) (sampleMerge, []sample, error) {
	k, r := c.K(), ld.r()
	sums := summaries(c, ld, slab, merges, grouped)
	msgs := make([]mpc.Msg, r*(r-1))
	outs := make([][]mpc.Msg, k)
	for j, id := range ld.ids {
		words := summaryWords(&sums[j], grouped)
		out := msgs[j*(r-1) : j*(r-1) : (j+1)*(r-1)]
		for o, to := range ld.ids {
			if o != j {
				out = append(out, mpc.Msg{To: to, Words: words, Data: &sums[j]})
			}
		}
		outs[id] = out
	}
	round := c.Span("summary")
	ins, _, err := c.Exchange(outs, nil)
	round.End()
	if err != nil {
		return sampleMerge{}, nil, err
	}
	// Leader 0's view: its own summary, then the others' in delivery order,
	// which is leader order.
	inbox, n := ins[ld.ids[0]], 0
	if len(inbox) != r-1 {
		return sampleMerge{}, nil, fmt.Errorf("prims: leader %d was sent %d summaries, want %d", ld.ids[0], len(inbox), r-1)
	}
	m := sampleMerge{samples: make([]*sample, r), summaries: true}
	m.samples[0], n = &sums[0], len(sums[0].Keys)
	for j, msg := range inbox {
		s, ok := msg.Data.(*sample)
		if !ok || s == nil {
			return sampleMerge{}, nil, fmt.Errorf("prims: unexpected summary payload %T", msg.Data)
		}
		m.samples[1+j], n = s, n+len(s.Keys)
	}
	m.sort(make([]mergeRef, 0, n))
	return m, sums, nil
}

// bucketLoads adds to load[j] a bound on the items the samples hold in
// bucket j of the list sp, walkBuckets over len(load) buckets: a whole
// sample's keys in it exactly, and a sample with at most gap() items
// between two of its keys (its keys in it + 1)·gap(). It returns the sum of
// the +1 terms, which every bucket's bound adds.
func bucketLoads(samples []sample, sp []SortKey, load []int) (base int) {
	for i := range samples {
		s, w := &samples[i], 1
		if !s.whole() {
			w = s.gap()
			base += w
		}
		walkBuckets(s.Keys, sp, len(load), identKey, func(j int, r []SortKey) { load[j] += w * len(r) })
	}
	return base
}

// groupsFit is the leaders' load check on group-aligned splitters sp:
// whether every bucket's load bound (bucketLoads over the samples the
// leaders merged — the machines' or the summaries), in items of itemWords
// words, fits its receiver's capacity in the route round.
func groupsFit(c *mpc.Cluster, sp []SortKey, samples []sample, itemWords int) bool {
	load := make([]int, c.K())
	base := bucketLoads(samples, sp, load)
	for j, l := range load {
		if (base+l)*itemWords > c.SmallCapOf(j) {
			return false
		}
	}
	return true
}

// inboxSamples is a leader's side of the sample round: the merge of the
// samples it was sent, in delivery order, over the caller's samples (one a
// message) and index (appended to, one a key).
func inboxSamples(inbox []mpc.Msg, samples []*sample, refs []mergeRef) (sampleMerge, error) {
	if len(inbox) != len(samples) {
		return sampleMerge{}, fmt.Errorf("prims: a leader was sent %d samples, want %d", len(inbox), len(samples))
	}
	for j, msg := range inbox {
		s, ok := msg.Data.(*sample)
		if !ok || s == nil {
			return sampleMerge{}, fmt.Errorf("prims: unexpected sample payload %T", msg.Data)
		}
		samples[j] = s
	}
	m := sampleMerge{samples: samples}
	m.sort(refs)
	return m, nil
}

// pickSplitters walks the samples' keys in sorted order — a merge of the
// sorted samples or summaries, equal keys in delivery order, as a stable
// sort of their concatenation orders them — each key standing for its
// sample's count over its size, and takes a splitter wherever the running
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
// requests, at most one a machine, that bounds x's items. Summaries count
// no key exactly, so over them the bound is K, which sortLeaders allows only
// when align ≥ K. A key whose bound exceeds align keeps its splitters.
func pickSplitters(c *mpc.Cluster, m sampleMerge, align int) []SortKey {
	k := c.K()
	total, loose := 0, k
	for _, s := range m.samples {
		total += s.Count
		if m.exact(s) {
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
	for _, ref := range m.order {
		s, kk := m.samples[ref.j], m.key(ref)
		if kk.A != x {
			closeRun()
			x, from, n = kk.A, len(splitters), 0
		}
		if m.exact(s) {
			n++
		}
		cum += s.weight()
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

// KeyRunWords is what the keys of one message cost on the wire, in the
// shorter of two forms that decode to the same keys: a key a word, or
// (first key, length) for each run of consecutive keys, each key or run
// followed by its values. Where the first key is not negative — as the
// vertex ids and pair codes these messages carry never are — the form
// costs no word: the run form writes its first key complemented and the
// sign of the first word names the form. A message whose first key is
// negative pays one tag word, math.MinInt64, before its keys, a key a word;
// a run form's first word is never followed by a negative length, so the
// tag reads apart from it. The receiver parses every form to the message's
// end, so it needs nothing but the message, not the keys' domain.
func KeyRunWords[T any](items []T, key func(T) int64) int {
	n := len(items)
	if n == 0 {
		return 0
	}
	if key(items[0]) < 0 {
		return n + 1
	}
	runs := 1
	for j := 1; j < n && 2*runs < n; j++ {
		if key(items[j]) != key(items[j-1])+1 {
			runs++
		}
	}
	return min(n, 2*runs)
}

// KVKey keys a (key, value) pair by its key, as KeyRunWords reads it.
func KVKey[V any](kv KV[V]) int64 { return kv.K }

// sortReply is a leader's answer to one machine's sample: the cuts of the
// machine's run or, for a machine that holds more than it sampled, the
// splitter list to derive them from. The list is never nil (pickSplitters
// makes it), so a nil List says the reply is cuts.
type sortReply struct {
	Cuts []Cut
	List []SortKey
}

// sortReplies is the rest of step 3: every leader answers its group's
// samples, and the returned replies are what each machine holds afterwards.
// A machine whose sample is its whole run (wholeRun) has sent its leader
// every key it holds, so the leader cuts the run (runCuts, into the
// machine's share of cutBuf) and, if spans is non-nil, works out its spans
// (splitterSpans, into entries 2i and 2i+1): a header word, runCutWords and
// 3 words a span, at most min(2·K, items)+7. Any other machine is sent the
// list, keyWords(sp)+1, and derives both itself. A leader keeps its own
// reply; leader 0, unless it is the large machine, also sends that machine
// a plan's list (PlanBroadcast). A leader sends its replies in one round
// when they fit half its capacity, else hands the list to its group's first
// machine in that round, and the list goes down the group's tree (treeCast).
func sortReplies(c *mpc.Cluster, ld leaders, sp []SortKey, samples []sample, cutBuf []Cut, starts []int, spans []span) ([]sortReply, error) {
	defer c.Span("broadcast").End()
	k := c.K()
	replies := make([]sortReply, k+1) // entry k is the large machine's copy of a plan's list
	msgs := make([]mpc.Msg, 0, k+1)
	outs := make([][]mpc.Msg, k)
	var outLarge []mpc.Msg
	var trees []cast
	listWords := keyWords(sp)
	for j, id := range ld.ids {
		lo, hi := ld.group(k, j)
		start, total := len(msgs), 0
		if j == 0 && spans != nil && c.HasLarge() && id != mpc.Large {
			replies[k] = sortReply{List: sp}
			msgs, total = append(msgs, mpc.Msg{To: mpc.Large, Words: listWords + 1, Data: &replies[k]}), listWords+1
		}
		kept := len(msgs)
		for i := lo; i < hi; i++ {
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
			if i == id {
				continue // a leader keeps its own reply
			}
			msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: r})
			total += words
		}
		if total > leaderCap(c, id)/2 {
			msgs, trees = msgs[:kept], append(trees, cast{from: id, lo: lo, hi: hi})
		}
		if id == mpc.Large {
			outLarge = msgs[start:len(msgs):len(msgs)]
		} else {
			outs[id] = msgs[start:len(msgs):len(msgs)]
		}
	}
	if len(trees) == 0 {
		_, _, err := c.Exchange(outs, outLarge)
		return replies[:k], err
	}
	return replies[:k], treeCast(c, sortReply{List: sp}, listWords+1, outs, outLarge, trees, replies)
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

// sample is one machine's evenly spaced key sample and item count, or a
// leader's summary of its group's samples (summarise): Count items, each key
// standing for Count/len(Keys) of them. Gap is set on a grouped Sort's
// summary only.
type sample struct {
	Keys  []SortKey
	Count int
	Gap   int
}

// whole reports whether the sample is every key its machines hold, in order.
func (s *sample) whole() bool { return s.Count == len(s.Keys) }

// gap bounds the items between two consecutive keys of a sample that is not
// whole: Gap for a summary, ⌈Count/len(Keys)⌉ for a machine's evenly spaced
// keys.
func (s *sample) gap() int {
	if s.Gap > 0 {
		return s.Gap
	}
	return (s.Count + len(s.Keys) - 1) / len(s.Keys)
}

// weight is the items each of s's keys stands for.
func (s *sample) weight() float64 { return float64(s.Count) / float64(len(s.Keys)) }

// sampleMerge is a merge of sorted samples: an index (sample j, key x) a
// key, appended in delivery order and sorted stably by key (SortLocal), so
// equal keys come out in delivery order, as a stable sort of the samples'
// concatenation has them. A merge of summaries counts no key exactly
// (pickSplitters).
type sampleMerge struct {
	samples   []*sample
	order     []mergeRef
	summaries bool
}

// mergeRef is key x of the merge's sample j.
type mergeRef struct{ j, x int32 }

// exact reports whether s's keys are every key of one machine, counted
// exactly by pickSplitters' alignment.
func (m *sampleMerge) exact(s *sample) bool { return !m.summaries && s.whole() }

// key is the key ref names.
func (m *sampleMerge) key(ref mergeRef) SortKey { return m.samples[ref.j].Keys[ref.x] }

// sort appends every sample's keys to refs, in delivery order, and sorts
// them into the merge's order.
func (m *sampleMerge) sort(refs []mergeRef) {
	for j, s := range m.samples {
		for x := range s.Keys {
			refs = append(refs, mergeRef{int32(j), int32(x)})
		}
	}
	SortLocal(refs, m.key)
	m.order = refs
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
