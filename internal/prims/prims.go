// Package prims implements the paper's algorithmic toolbox (§2) as real
// multi-round protocols on the mpc simulator:
//
//   - Claim 1 (Sorting): a sample sort, O(1) rounds: sample, summary,
//     reply, route. Every machine sends its group's leader — one of ⌈√K⌉,
//     or the coordinator alone where sortLeaders keeps one, counting the
//     keys of Arrange's and AggregateByKey's Sorts at one word — its whole run
//     as its sample when that costs no more than being sent the splitter
//     list (wholeRun), else q keys; the leaders exchange summaries of their
//     groups and pick the same splitters, and each answers its group with
//     the cuts of a whole run — (bucket, count) pairs — or the list to cut
//     a run itself. A leader's replies, when they do not fit its round
//     budget, go down a capacity-bounded tree over its group instead;
//   - Claim 2 (Aggregation): local combine → sort by key → fold. The sort
//     key is the aggregation key alone, so a key's ≤ K partials meet on one
//     machine and no tree is needed (or charged); results are per machine a
//     sorted run of (key, value) (AggregateByKey), which GatherKVs brings to
//     the large machine as one key-sorted slab. Over a Plan of keys the
//     machines request there is no sort: each partial goes to the bucket its
//     machine's own request for the key went to, and, when a key spans
//     machines, one span-up round folds a span's partials into its root
//     (PlanCombine), where Claim 3 reads them;
//   - Claim 3 (Dissemination): one form. A request set is sorted once by
//     (x, 1, requester) into a Plan (NewPlan), so a key's values have one
//     machine, its root, the bucket of (x, 0, 0); the spans a machine sits
//     in are a function of Sort's splitters and come with Sort's reply. The
//     buckets are cut at key boundaries, so a key with at most one tree
//     level's fan-out of requests sits whole in its root's bucket and only a
//     hotter key spans. Every PlanBroadcast over the plan routes the large
//     machine's values straight to their roots (one scatter round), and
//     machine-range trees with capacity-bounded branching (the paper's trees
//     with branching n^γ) run downward over the spans, delivering per-key
//     values to every machine that requested the key. Each machine's needs strictly ascend, so
//     slot s of machine i is needs[i][s]: DistinctSlots builds them and
//     returns each input position's slot, and the answers are read by slot
//     (Answers.Slot). A request set used once is the same two calls
//     (DisseminateFromLarge);
//   - Claim 4 (Arranging nodes): sort directed edges by source, then one
//     gather of the per-key machine runs to the large machine (at most
//     n + K - 1 runs by contiguity), enabling the "collect the k lightest
//     edges of each vertex" pattern used by the MST and matching
//     algorithms: one scatter of queries, one gather of replies.
//
// Every primitive is charged its true round cost through mpc.Exchange; none
// of them moves information outside the model.
//
// Each collective mechanism exists once: the rounds to and from the
// coordinator (toCoordinator, fromCoordinator), the coordinator reduce
// behind SumToLarge, SumAll and MaxAll (reduce), the one-round gather to
// and scatter from the large machine behind GatherToLarge, GatherKVs,
// PlanBroadcast, Claim 4 and connectivity's contraction (Gather, Scatter —
// round builders that open no span), the route along cuts behind Sort,
// PlanCombine and that contraction (Route), the bulk-item payload of
// Gather, Scatter and Route (chunk, chunkMsg, appendChunks), and the range
// trees' walk behind BroadcastValue and Sort's replies (treeCast) and
// PlanBroadcast (treeDown, whose heap arithmetic gives a position the
// children b·p+1 … b·p+b, walked in place).
//
// A collective allocates per machine, never per message, and Sort, NewPlan,
// PlanBroadcast, PlanCombine and Scatter per call: struct payloads
// travel as pointers into one slab per sender per round — Sort's reply and
// route rounds and the answer round carve every sender's from one array —
// wire-native scalars by value, and PlanBroadcast's answers land in one slab
// of slots for every receiver (DESIGN.md §14, "Payload slabs").
package prims

import (
	"fmt"
	"slices"

	"hetmpc/internal/mpc"
)

// KV pairs an int64 key with a value. Composite keys (vertex pairs etc.) are
// packed into the int64 by the caller.
type KV[V any] struct {
	K int64
	V V
}

// coordinator returns the machine id that plays the coordinator role:
// the large machine when present, otherwise small machine 0.
func coordinator(c *mpc.Cluster) int {
	if c.HasLarge() {
		return mpc.Large
	}
	return 0
}

// coordCap returns the coordinator's capacity.
func coordCap(c *mpc.Cluster) int { return leaderCap(c, coordinator(c)) }

// toCoordinator runs one round of small-machine sends and returns the
// coordinator's inbox, in delivery (machine) order.
func toCoordinator(c *mpc.Cluster, outs [][]mpc.Msg) ([]mpc.Msg, error) {
	ins, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	if c.HasLarge() {
		return inLarge, nil
	}
	return ins[0], nil
}

// perMachineOuts returns K one-message out-lists carved from one flat array
// — the shape of every round in which each machine sends one message. The
// caller fills outs[i][0], or clears outs[i] for a machine that stays
// silent.
func perMachineOuts(k int) [][]mpc.Msg {
	flat := make([]mpc.Msg, k)
	outs := make([][]mpc.Msg, k)
	for i := range outs {
		outs[i] = flat[i : i+1 : i+1]
	}
	return outs
}

// checkBuckets refuses per-machine input with a non-empty bucket at index
// ≥ K — data for a machine the cluster does not have — with
// mpc.ErrUnknownSender, as Exchange refuses such an out-list. Inputs shorter
// than K and empty tails are legal.
func checkBuckets[T any](c *mpc.Cluster, op string, data [][]T) error {
	for i := c.K(); i < len(data); i++ {
		if len(data[i]) > 0 {
			return fmt.Errorf("prims: %s: %w: bucket %d holds %d items but the cluster has K=%d small machines",
				op, mpc.ErrUnknownSender, i, len(data[i]), c.K())
		}
	}
	return nil
}

// fromCoordinator runs one round in which the coordinator alone sends msgs
// and returns the small machines' inboxes.
func fromCoordinator(c *mpc.Cluster, msgs []mpc.Msg) ([][]mpc.Msg, error) {
	if c.HasLarge() {
		ins, _, err := c.Exchange(nil, msgs)
		return ins, err
	}
	outs := make([][]mpc.Msg, c.K())
	outs[0] = msgs
	ins, _, err := c.Exchange(outs, nil)
	return ins, err
}

// branching returns the tree branching factor for payloads of `words` words:
// as large as possible while a parent can feed all children in one round
// within half its capacity. This is the simulator's concrete version of the
// paper's "trees with branching factor n^γ". Under capacity-skewed profiles
// the bound is the smallest machine's capacity, since any machine can land
// anywhere in a range tree.
func branching(c *mpc.Cluster, words int) int {
	if words < 1 {
		words = 1
	}
	b := c.MinSmallCap() / (2 * words)
	if b < 2 {
		b = 2
	}
	return b
}

// treeDepth returns the number of edge-levels of a B-ary heap over size
// nodes (0 for size <= 1).
func treeDepth(size, b int) int {
	d := 0
	span := 1
	for span < size {
		span = span*b + 1
		d++
	}
	return d
}

// posDepth returns the depth of heap position p in a B-ary heap.
func posDepth(p, b int) int {
	d := 0
	for p > 0 {
		p = (p - 1) / b
		d++
	}
	return d
}

// childRange returns the heap children of p that are < size as the half-open
// position range [lo, hi) — b·p+1 … min(b·p+b, size−1) — so a tree level
// costs its actual children, never the branching factor.
func childRange(p, b, size int) (lo, hi int) {
	lo = min(b*p+1, size)
	return lo, min(lo+b, size)
}

// BroadcastValue delivers one value held by the coordinator to every small
// machine, using a direct send when the copies it sends fit the
// coordinator's round budget and a capacity-bounded tree over every machine
// (treeCast) otherwise. Returns the per-machine copies.
func BroadcastValue[V any](c *mpc.Cluster, val V, words int) ([]V, error) {
	defer c.Span("broadcast").End()
	k := c.K()
	out := make([]V, k)
	// A sender boxes the value once: every message it sends carries the
	// same interface value.
	var boxed any = val
	first := 0
	if !c.HasLarge() {
		first = 1 // machine 0 keeps its own copy locally
	}
	if (k-first)*words <= coordCap(c)/2 {
		msgs := make([]mpc.Msg, 0, k-first)
		for i := first; i < k; i++ {
			msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: boxed})
		}
		if _, err := fromCoordinator(c, msgs); err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = val
		}
		return out, nil
	}
	// Tree broadcast: one span over every machine, rooted at machine 0.
	return out, treeCast(c, val, words, make([][]mpc.Msg, k), nil, []cast{{from: coordinator(c), hi: k}}, out)
}

// cast is one tree of a treeCast: machine from holds the value for
// machines [lo, hi).
type cast struct{ from, lo, hi int }

// treeCast delivers val, at words words, to the machines of every cast:
// each from that is not its lo hands val to lo in one round, beside the
// caller's outs (K entries) and outLarge, and val goes down a tree over
// [lo, hi) (treeDown). A round that sends nothing is not run. Machine i's
// copy lands in out[i].
func treeCast[V any](c *mpc.Cluster, val V, words int, outs [][]mpc.Msg, outLarge []mpc.Msg, casts []cast, out []V) error {
	k := c.K()
	spans, down, has := make([]span, 2*k), make([]KV[V], 2*k), make([]bool, 2*k)
	widest := 0
	for _, t := range casts {
		for i := t.lo; i < t.hi; i++ {
			spans[2*i] = span{A: t.lo, B: t.hi - 1}
		}
		down[2*t.lo], has[2*t.lo], widest = KV[V]{V: val}, true, max(widest, t.hi-t.lo)
		if hand := (mpc.Msg{To: t.lo, Words: words, Data: &down[2*t.lo]}); t.from == mpc.Large {
			outLarge = append(outLarge, hand)
		} else if t.from != t.lo {
			outs[t.from] = append(outs[t.from], hand)
		}
	}
	if len(outLarge) > 0 || slices.ContainsFunc(outs, func(out []mpc.Msg) bool { return len(out) > 0 }) {
		if _, _, err := c.Exchange(outs, outLarge); err != nil {
			return err
		}
	}
	if err := treeDown(c, spans, down, has, widest, words); err != nil {
		return err
	}
	for _, t := range casts {
		for i := t.lo; i < t.hi; i++ {
			out[i] = down[2*i].V
		}
	}
	return nil
}

// treeDown forwards each span's value down a capacity-bounded interval tree
// over the span's machines (the paper's trees with branching n^γ),
// treeDepth(widest, b) rounds for the widest span's machines. Machine i's
// spans are entries 2i and 2i+1 of spans; down and has hold, beside each,
// the span key's value once the machine has it — its root's before the
// walk, every machine's after it. Every child gets the same (key, value),
// at words words: the sender's down entry is the payload of all its
// messages, and a level's messages are one array.
func treeDown[V any](c *mpc.Cluster, spans []span, down []KV[V], has []bool, widest, words int) error {
	k := c.K()
	b := branching(c, words)
	// fanout is the children span entry j feeds at depth d.
	fanout := func(j, d int) (lo, hi int) {
		si := spans[j]
		p := j/2 - si.A
		if !has[j] || posDepth(p, b) != d {
			return 0, 0 // not this level, or no value for this key
		}
		return childRange(p, b, si.B-si.A+1)
	}
	for d, depth := 0, treeDepth(widest, b); d < depth; d++ {
		n := 0
		for j := range spans {
			lo, hi := fanout(j, d)
			n += hi - lo
		}
		msgs := make([]mpc.Msg, 0, n)
		outs := make([][]mpc.Msg, k)
		for i := range outs {
			sent := len(msgs)
			for j := 2 * i; j < 2*i+2; j++ {
				lo, hi := fanout(j, d)
				for ch := lo; ch < hi; ch++ {
					msgs = append(msgs, mpc.Msg{To: spans[j].A + ch, Words: words, Data: &down[j]})
				}
			}
			outs[i] = msgs[sent:len(msgs):len(msgs)]
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				dm, ok := m.Data.(*KV[V])
				if !ok || dm == nil {
					return fmt.Errorf("prims: unexpected tree payload %T", m.Data)
				}
				if j := spanOf(spans, i, dm.K); j >= 0 {
					down[j], has[j] = *dm, true
				}
			}
		}
	}
	return nil
}

// spanOf is the entry of machine i's span of key, or -1.
func spanOf(spans []span, i int, key int64) int {
	for j := 2 * i; j < 2*i+2; j++ {
		if spans[j].B > spans[j].A && spans[j].Key == key {
			return j
		}
	}
	return -1
}

// chunk is the payload of every bulk item transfer: gather, scatter and the
// routing round of Sort. It travels as a pointer into the sender's slab.
type chunk[T any] struct{ Items []T }

// chunkMsg stores items in slot — an entry of the sender's chunk slab for
// the round — and returns the message carrying them to machine `to`,
// charged words.
func chunkMsg[T any](slot *chunk[T], to int, items []T, words int) mpc.Msg {
	slot.Items = items
	return mpc.Msg{To: to, Words: words, Data: slot}
}

// chunkItems is the checked pass over a chunk inbox: the number of items its
// messages carry, or an error if any payload is not a *chunk[T] — before
// anything is copied, wherever in the inbox it sits.
func chunkItems[T any](inbox []mpc.Msg) (int, error) {
	n := 0
	for _, m := range inbox {
		ch, ok := m.Data.(*chunk[T])
		if !ok || ch == nil {
			return 0, fmt.Errorf("prims: unexpected chunk payload %T", m.Data)
		}
		n += len(ch.Items)
	}
	return n, nil
}

// copyChunks appends the items of an inbox that chunkItems has checked to
// dst, in delivery order.
func copyChunks[T any](dst []T, inbox []mpc.Msg) []T {
	for _, m := range inbox {
		dst = append(dst, m.Data.(*chunk[T]).Items...)
	}
	return dst
}

// appendChunks appends the items of every chunk message in inbox to dst, in
// delivery order, growing dst once.
func appendChunks[T any](dst []T, inbox []mpc.Msg) ([]T, error) {
	n, err := chunkItems[T](inbox)
	if err != nil {
		return nil, err
	}
	return copyChunks(slices.Grow(dst, n), inbox), nil
}

// GatherToLarge sends every machine's items to the large machine and returns
// them concatenated in (machine, local index) order. The receive cap of the
// large machine bounds the legal volume; violations surface as ErrCapacity.
func GatherToLarge[T any](c *mpc.Cluster, data [][]T, itemWords int) ([]T, error) {
	defer c.Span("gather").End()
	return Gather(c, data, func(items []T) int { return len(items) * itemWords })
}

// Gather is the one gather round: every machine's items go to the large
// machine as one chunk message charged words(its items), and arrive
// concatenated in (machine, local index) order. It opens no span; its
// callers do.
func Gather[T any](c *mpc.Cluster, data [][]T, words func([]T) int) ([]T, error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: gather: %w", mpc.ErrNeedsLarge)
	}
	if err := checkBuckets(c, "gather", data); err != nil {
		return nil, err
	}
	outs := perMachineOuts(c.K())
	slab := make([]chunk[T], c.K())
	for i := range outs {
		if i >= len(data) || len(data[i]) == 0 {
			outs[i] = nil
			continue
		}
		outs[i][0] = chunkMsg(&slab[i], mpc.Large, data[i], words(data[i]))
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	return appendChunks([]T{}, inLarge)
}

// Scatter is the one scatter round: the large machine sends items[i] to
// machine i as one chunk message charged words(items[i]), and returns the
// machines' inboxes, carved from one array. It opens no span; its callers
// do.
func Scatter[T any](c *mpc.Cluster, items [][]T, words func([]T) int) ([][]T, error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: scatter: %w", mpc.ErrNeedsLarge)
	}
	if err := checkBuckets(c, "scatter", items); err != nil {
		return nil, err
	}
	out := make([]mpc.Msg, 0, len(items))
	slab := make([]chunk[T], len(items))
	for i := range items {
		if len(items[i]) == 0 {
			continue
		}
		out = append(out, chunkMsg(&slab[i], i, items[i], words(items[i])))
	}
	ins, _, err := c.Exchange(nil, out)
	if err != nil {
		return nil, err
	}
	// Count (the checked pass), carve one array, copy.
	total := 0
	for _, inbox := range ins {
		n, err := chunkItems[T](inbox)
		if err != nil {
			return nil, err
		}
		total += n
	}
	flat := make([]T, 0, total)
	res := make([][]T, c.K())
	for i, inbox := range ins {
		start := len(flat)
		if flat = copyChunks(flat, inbox); len(flat) > start {
			res[i] = flat[start:len(flat):len(flat)]
		}
	}
	return res, nil
}

// reduce is the one coordinator reduce: every machine sends one int64
// (vals[i], 0 past the end) to the coordinator in one round, which folds
// them in delivery (machine) order seeded with the first — so fold needs no
// identity — and, if broadcast is set, sends the result back to every
// machine. An empty inbox yields 0. A non-zero value at index ≥ K — one no
// machine would send — is refused with mpc.ErrUnknownSender, as checkBuckets
// refuses a non-empty bucket there; shorter vals and zero tails are legal.
func reduce(c *mpc.Cluster, op string, vals []int64, fold func(acc, v int64) int64, broadcast bool) (int64, error) {
	for i := c.K(); i < len(vals); i++ {
		if vals[i] != 0 {
			return 0, fmt.Errorf("prims: %s: %w: value %d at index %d but the cluster has K=%d small machines",
				op, mpc.ErrUnknownSender, vals[i], i, c.K())
		}
	}
	outs := perMachineOuts(c.K())
	for i := range outs {
		var v int64
		if i < len(vals) {
			v = vals[i]
		}
		outs[i][0] = mpc.Msg{To: coordinator(c), Words: 1, Data: v}
	}
	inbox, err := toCoordinator(c, outs)
	if err != nil {
		return 0, err
	}
	var acc int64
	for j, m := range inbox {
		v, ok := m.Data.(int64)
		if !ok {
			return 0, fmt.Errorf("prims: unexpected reduce payload %T", m.Data)
		}
		if j == 0 {
			acc = v
		} else {
			acc = fold(acc, v)
		}
	}
	if broadcast {
		if _, err := BroadcastValue(c, acc, 1); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

func addInt64(a, b int64) int64 { return a + b }

// SumToLarge adds one int64 per machine at the large machine (one round).
func SumToLarge(c *mpc.Cluster, vals []int64) (int64, error) {
	if !c.HasLarge() {
		return 0, fmt.Errorf("prims: SumToLarge: %w", mpc.ErrNeedsLarge)
	}
	defer c.Span("sum").End()
	return reduce(c, "SumToLarge", vals, addInt64, false)
}

// SumAll adds one int64 per machine at the coordinator and broadcasts the
// total back to every machine, so all machines (and the caller) learn it.
// Works with or without a large machine. Two-plus rounds.
func SumAll(c *mpc.Cluster, vals []int64) (int64, error) {
	defer c.Span("sum").End()
	return reduce(c, "SumAll", vals, addInt64, true)
}

// MaxAll is SumAll for the maximum: every machine (and the caller) learns
// the largest of the per-machine values. It opens no span of its own.
func MaxAll(c *mpc.Cluster, vals []int64) (int64, error) {
	return reduce(c, "MaxAll", vals, func(a, b int64) int64 { return max(a, b) }, true)
}

// BroadcastSeed derives a fresh shared random seed at the coordinator and
// broadcasts it (the paper's "one machine generates O(polylog n) random bits
// and disseminates them", App. C.1). Returns the seed.
func BroadcastSeed(c *mpc.Cluster) (uint64, error) {
	defer c.Span("seed").End()
	var seed uint64
	if c.HasLarge() {
		seed = c.LargeRand().Uint64()
	} else {
		seed = c.Rand(0).Uint64()
	}
	if _, err := BroadcastValue(c, seed, 1); err != nil {
		return 0, err
	}
	return seed, nil
}

// SortKVsByKey sorts a KV slice by key, stable among equal keys (the radix
// local sort's index tiebreak reproduces the stable order exactly).
func SortKVsByKey[V any](kvs []KV[V]) {
	SortLocal(kvs, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
}
