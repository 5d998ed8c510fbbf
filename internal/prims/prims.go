// Package prims implements the paper's algorithmic toolbox (§2) as real
// multi-round protocols on the mpc simulator:
//
//   - Claim 1 (Sorting): a coordinator-based sample sort, O(1) rounds:
//     sample, reply, route. The coordinator answers a machine whose sample
//     was its whole run with the cuts of that run — (bucket, count) pairs —
//     and any other with the splitter list to cut its run itself; the
//     replies take one direct round when together they fit the coordinator's
//     round budget, else the list goes down a capacity-bounded tree;
//   - Claim 2 (Aggregation): local combine → sort by key → fold. The sort
//     key is the aggregation key alone, so a key's ≤ K partials meet on one
//     machine and no tree is needed (or charged); results are per machine a
//     sorted run of (key, value), optionally gathered to the large machine
//     (AggregateByKey). Over a Plan of keys the machines request there is no
//     sort: each partial goes to the bucket its machine's own request for the
//     key went to, and one span-up round folds a span's partials into its
//     root (PlanCombine), where Claim 3 reads them;
//   - Claim 3 (Dissemination): requests are sorted by (x, 1, requester), so
//     a key's values, under (x, 0, 0), have one machine — its root; the spans
//     a machine sits in are a function of Sort's splitters and come with
//     Sort's reply, and machine-range trees with capacity-bounded branching
//     (the paper's trees with branching n^γ) run downward over them,
//     delivering per-key values to every machine that requested the key. A
//     request set used once sorts its values with it (SegmentedBroadcast);
//     one disseminated to again and again is sorted once into a Plan, and
//     every PlanBroadcast over it is the tree and the answer round, the
//     large machine's values routed straight to their roots;
//   - Claim 4 (Arranging nodes): sort directed edges by source, report the
//     per-key machine runs to the large machine (at most n + K - 1 runs by
//     contiguity), enabling the "collect the k lightest edges of each
//     vertex" pattern used by the MST and matching algorithms.
//
// Every primitive is charged its true round cost through mpc.Exchange; none
// of them moves information outside the model.
//
// Each collective mechanism exists once: the rounds to and from the
// coordinator (toCoordinator, fromCoordinator), the coordinator reduce
// behind SumToLarge, SumAll and MaxAll (reduce), the bulk-item payload of
// gather, scatter and sort routing (chunk, chunkMsg, appendChunks), and the
// heap arithmetic of the range trees (a position's children are the range
// b·p+1 … b·p+b, walked in place).
//
// A collective allocates per machine, never per message, and Sort,
// SegmentedBroadcast and PlanBroadcast (their result maps aside),
// PlanCombine and ScatterFromLarge per call: struct payloads travel as
// pointers into one slab per sender per round — Sort's reply and route
// rounds and the answer round carve every sender's from one array —
// wire-native scalars and slices by value (DESIGN.md §14, "Payload slabs").
package prims

import (
	"fmt"
	"slices"

	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
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
func coordCap(c *mpc.Cluster) int {
	if c.HasLarge() {
		return c.LargeCap()
	}
	return c.SmallCapOf(0)
}

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
// machine, using a direct send when it fits the coordinator's round budget
// and a capacity-bounded B-ary tree otherwise. Returns the per-machine
// copies.
func BroadcastValue[V any](c *mpc.Cluster, val V, words int) ([]V, error) {
	defer c.Span("broadcast").End()
	k := c.K()
	out := make([]V, k)
	// A sender boxes the value once: every message it sends carries the
	// same interface value.
	var boxed any = val
	direct := k*words <= coordCap(c)/2
	if direct {
		msgs := make([]mpc.Msg, 0, k)
		for i := 0; i < k; i++ {
			msgs = append(msgs, mpc.Msg{To: i, Words: words, Data: boxed})
		}
		if !c.HasLarge() {
			msgs = msgs[1:] // machine 0 keeps its own copy locally
		}
		if _, err := fromCoordinator(c, msgs); err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = val
		}
		return out, nil
	}
	// Tree broadcast rooted at machine 0.
	if c.HasLarge() {
		if _, _, err := c.Exchange(nil, []mpc.Msg{{To: 0, Words: words, Data: boxed}}); err != nil {
			return nil, err
		}
	}
	b := branching(c, words)
	depth := treeDepth(k, b)
	have := make([]bool, k)
	have[0] = true
	out[0] = val
	for d := 0; d < depth; d++ {
		outs := make([][]mpc.Msg, k)
		for p := 0; p < k; p++ {
			if !have[p] || posDepth(p, b) != d {
				continue
			}
			lo, hi := childRange(p, b, k)
			if lo == hi {
				continue
			}
			outs[p] = make([]mpc.Msg, 0, hi-lo)
			var fwd any = out[p]
			for ch := lo; ch < hi; ch++ {
				outs[p] = append(outs[p], mpc.Msg{To: ch, Words: words, Data: fwd})
			}
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return nil, err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				v, ok := m.Data.(V)
				if !ok {
					return nil, fmt.Errorf("prims: unexpected broadcast payload %T", m.Data)
				}
				out[i] = v
				have[i] = true
			}
		}
	}
	return out, nil
}

// chunk is the payload of every bulk item transfer: gather, scatter and the
// routing round of Sort. It travels as a pointer into the sender's slab.
type chunk[T any] struct{ Items []T }

// chunkMsg stores items in slot — an entry of the sender's chunk slab for
// the round — and returns the message carrying it to machine `to`,
// accounted at itemWords words per item.
func chunkMsg[T any](slot *chunk[T], to int, items []T, itemWords int) mpc.Msg {
	slot.Items = items
	return mpc.Msg{To: to, Words: len(items) * itemWords, Data: slot}
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
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: GatherToLarge: %w", mpc.ErrNeedsLarge)
	}
	if err := checkBuckets(c, "GatherToLarge", data); err != nil {
		return nil, err
	}
	defer c.Span("gather").End()
	outs := perMachineOuts(c.K())
	slab := make([]chunk[T], c.K())
	for i := range outs {
		if i >= len(data) || len(data[i]) == 0 {
			outs[i] = nil
			continue
		}
		outs[i][0] = chunkMsg(&slab[i], mpc.Large, data[i], itemWords)
	}
	_, inLarge, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	return appendChunks([]T{}, inLarge)
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

// ScatterFromLarge routes per-machine message lists from the large machine
// (one round). msgs[i] is delivered to machine i.
func ScatterFromLarge[T any](c *mpc.Cluster, items [][]T, itemWords int) ([][]T, error) {
	if !c.HasLarge() {
		return nil, fmt.Errorf("prims: ScatterFromLarge: %w", mpc.ErrNeedsLarge)
	}
	if err := checkBuckets(c, "ScatterFromLarge", items); err != nil {
		return nil, err
	}
	defer c.Span("scatter").End()
	out := make([]mpc.Msg, 0, len(items))
	slab := make([]chunk[T], len(items))
	for i := range items {
		if len(items[i]) == 0 {
			continue
		}
		out = append(out, chunkMsg(&slab[i], i, items[i], itemWords))
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

// hashKeyToMachine places key on a machine pseudo-uniformly.
func hashKeyToMachine(key int64, k int) int {
	return int(xrand.SplitMix64(uint64(key)+0x9e37) % uint64(k))
}

// SortKVsByKey sorts a KV slice by key, stable among equal keys (the radix
// local sort's index tiebreak reproduces the stable order exactly).
func SortKVsByKey[V any](kvs []KV[V]) {
	SortLocal(kvs, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
}
