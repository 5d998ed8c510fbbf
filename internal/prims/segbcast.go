package prims

import (
	"fmt"

	"hetmpc/internal/mpc"
)

// span is a key whose sorted run may cover machines A..B (inclusive, B > A);
// A, the root, is the bucket of the key's values. The zero span is no span.
type span struct {
	Key  int64
	A, B int
}

// dissemKey is the sort key of SegmentedBroadcast's items: a value of key x
// (req < 0) sorts by (x, 0, 0) — every value of x carries that one key and
// so lands in one bucket — and a request by (x, 1, requester).
func dissemKey(x int64, req int32) SortKey {
	if req < 0 {
		return SortKey{A: x}
	}
	return SortKey{A: x, B: 1, C: int64(req)}
}

// splitterSpans returns the at most two spans machine i of k belongs to after
// a Sort that routed value items by (x, 0, 0) and request items by
// (x, 1, requester) through the splitter list sp — a function of sp alone, so
// every machine of a span computes the same one. Only the keys of the
// machine's own two bucket bounds, sp[i-1].A and sp[i].A, can have items on
// both sides of it. For such an x the root is the bucket of (x, 0, 0), the
// one bucket every value of x lands in, and the far end is the first bucket
// whose splitter's key exceeds x, the last a request for x can land in. That
// is a superset of the machines that do hold x: a bound that falls between
// two keys' runs still names a 2-machine span.
func splitterSpans(sp []SortKey, k, i int) (spans [2]span) {
	sp = sp[:min(len(sp), k-1)]
	n := 0
	for s := max(i-1, 0); s <= i && s < len(sp); s++ {
		x := sp[s].A
		if n > 0 && spans[0].Key == x {
			continue
		}
		v := dissemKey(x, -1)
		lo := bisect(0, len(sp), func(j int) bool { return v.Less(sp[j]) })
		hi := bisect(lo, len(sp), func(j int) bool { return sp[j].A > x })
		if lo <= i && lo < hi {
			spans[n] = span{Key: x, A: lo, B: hi}
			n++
		}
	}
	return spans
}

// SegmentedBroadcast implements Claim 3 (dissemination) for a request set
// used once: per-key values — held by the large machine and/or scattered over
// the small machines — are delivered to every small machine that requests
// the key. needs[i] lists the (deduplicated) keys machine i requires; the
// result maps mirror needs.
//
// It is a Plan of needs built with this call's values riding its Sort, then
// broadcast once: value items, keyed (x, 0, 0), and request items, keyed
// (x, 1, requester), are sorted together, so all of a key's values land on
// its root, and the plan's tree-down and answer rounds deliver them (see
// broadcast). It charges one Sort, treeDepth(K, b) tree rounds and the answer
// round, plus a scatter round when largeValues is non-empty, where the large
// machine's values are hashed across the machines: they only need to enter
// the sort somewhere. Requests for keys with no value are silently unanswered
// (absent from the result map). Of several values for one key the first in
// origin order wins, for every requester: machine by machine, smallValues[i]
// before the large values hashed to machine i, each in list order (Sort is
// stable). A request set that is disseminated to more than once pays its
// Sort once through NewPlan and PlanBroadcast.
//
// The requester-side receive volume is Σ|needs[i]|·(vwords+1), which the
// caller keeps within capacity exactly as the paper does (labels and cluster
// ids are polylog-sized).
func SegmentedBroadcast[V any](
	c *mpc.Cluster,
	needs [][]int64,
	smallValues [][]KV[V],
	largeValues []KV[V],
	vwords int,
) ([]map[int64]V, error) {
	if err := checkBuckets(c, "SegmentedBroadcast needs", needs); err != nil {
		return nil, err
	}
	if err := checkBuckets(c, "SegmentedBroadcast smallValues", smallValues); err != nil {
		return nil, err
	}
	defer c.Span("broadcast").End()
	k := c.K()
	var injected [][]KV[V]
	if len(largeValues) > 0 {
		if !c.HasLarge() {
			return nil, fmt.Errorf("prims: SegmentedBroadcast largeValues: %w", mpc.ErrNeedsLarge)
		}
		var err error
		hash := func(x int64) int { return hashKeyToMachine(x, k) }
		if injected, err = scatterTo(c, largeValues, vwords, hash); err != nil {
			return nil, err
		}
	}
	p, vals, err := planSort(c, needs, vwords, smallValues, injected)
	if err != nil {
		return nil, err
	}
	return broadcast(c, p, vals, vwords)
}

// DisseminateFromLarge is the common special case of Claim 3: the large
// machine holds values for a set of keys; machine i needs the keys in
// needs[i].
func DisseminateFromLarge[V any](c *mpc.Cluster, needs [][]int64, values map[int64]V, vwords int) ([]map[int64]V, error) {
	return SegmentedBroadcast(c, needs, nil, SortedKVs(values), vwords)
}

// SortedKVs returns m's entries as a KV slice sorted by key: the large
// values of SegmentedBroadcast and PlanBroadcast from a map, in an order that
// does not depend on the map's.
func SortedKVs[V any](m map[int64]V) []KV[V] {
	kvs := make([]KV[V], 0, len(m))
	for key, v := range m {
		kvs = append(kvs, KV[V]{K: key, V: v})
	}
	SortKVsByKey(kvs)
	return kvs
}

// scatterTo ships the large machine's values to the small machines in one
// round (ScatterFromLarge), each to machine to(key), in list order per
// machine; the per-machine lists are carved from one array.
func scatterTo[V any](c *mpc.Cluster, large []KV[V], vwords int, to func(int64) int) ([][]KV[V], error) {
	k := c.K()
	starts := make([]int, k+1)
	for _, kv := range large {
		starts[to(kv.K)+1]++
	}
	for i := 0; i < k; i++ {
		starts[i+1] += starts[i]
	}
	flat := make([]KV[V], len(large))
	perMachine := make([][]KV[V], k)
	for i := range perMachine {
		perMachine[i] = flat[starts[i]:starts[i]:starts[i+1]]
	}
	for _, kv := range large {
		m := to(kv.K)
		perMachine[m] = append(perMachine[m], kv)
	}
	return ScatterFromLarge(c, perMachine, vwords+1)
}
