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

// SegmentedBroadcast implements Claim 3 (dissemination): per-key values —
// held by the large machine and/or scattered over the small machines — are
// delivered to every small machine that requests the key. needs[i] lists the
// (deduplicated) keys machine i requires; the result maps mirror needs.
//
// Protocol: value items, keyed (x, 0, 0), and request items, keyed
// (x, 1, requester), are sorted together, so all of a key's values land on
// one machine, at the head of the key's run. Which runs can span several
// machines is a function of Sort's splitters (splitterSpans) and comes with
// Sort's reply — no round is spent asking; the root of a span forwards the
// value down a capacity-bounded interval tree over it (the paper's trees of
// Claims 2/3); finally each request is answered to its requester. It charges
// one Sort, treeDepth(K, b) tree rounds and the answer round, plus a scatter
// round when largeValues is non-empty. Requests for keys with no value are
// silently unanswered (absent from the result map). Of several values for one
// key the first in origin order wins, for every requester: machine by
// machine, smallValues[i] before the large values hashed to machine i, each
// in list order (Sort is stable).
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
	type item struct {
		Key int64
		Req int32 // requester, -1 for a value
		Val V
	}
	itemWords := vwords + 3
	itemKey := func(it item) SortKey { return dissemKey(it.Key, it.Req) }

	// Round 0 (optional): inject the large machine's values, hashed across
	// the machines; they only need to enter the sort somewhere. starts is the
	// call's one offsets array: machine i's share of a flat array sits at
	// [starts[i], starts[i+1]).
	starts := make([]int, k+1)
	var injected [][]KV[V]
	if len(largeValues) > 0 {
		if !c.HasLarge() {
			return nil, fmt.Errorf("prims: SegmentedBroadcast largeValues: %w", mpc.ErrNeedsLarge)
		}
		for _, kv := range largeValues {
			starts[hashKeyToMachine(kv.K, k)+1]++
		}
		for i := 0; i < k; i++ {
			starts[i+1] += starts[i]
		}
		flat := make([]KV[V], len(largeValues))
		perMachine := make([][]KV[V], k)
		for i := range perMachine {
			perMachine[i] = flat[starts[i]:starts[i]:starts[i+1]]
		}
		for _, kv := range largeValues {
			m := hashKeyToMachine(kv.K, k)
			perMachine[m] = append(perMachine[m], kv)
		}
		var err error
		if injected, err = ScatterFromLarge(c, perMachine, vwords+1); err != nil {
			return nil, err
		}
	}

	// Build combined item lists, carved from one array by their known
	// lengths.
	for i := 0; i < k; i++ {
		n := 0
		if i < len(injected) {
			n += len(injected[i])
		}
		if i < len(smallValues) {
			n += len(smallValues[i])
		}
		if i < len(needs) {
			n += len(needs[i])
		}
		starts[i+1] = starts[i] + n
	}
	flat := make([]item, starts[k])
	items := make([][]item, k)
	c.Each(func(i int) {
		its := flat[starts[i]:starts[i]:starts[i+1]]
		if i < len(smallValues) {
			for _, kv := range smallValues[i] {
				its = append(its, item{Key: kv.K, Req: -1, Val: kv.V})
			}
		}
		if i < len(injected) {
			for _, kv := range injected[i] {
				its = append(its, item{Key: kv.K, Req: -1, Val: kv.V})
			}
		}
		if i < len(needs) {
			for _, key := range needs[i] {
				its = append(its, item{Key: key, Req: int32(i)})
			}
		}
		items[i] = its
	})

	sorted, spans, err := sortSplit(c, items, itemWords, itemKey, true)
	if err != nil {
		return nil, err
	}

	// Machine i's spans are entries 2i and 2i+1 of spans; vals and has hold,
	// beside each, the span key's value once the machine has it. A root reads
	// it off the head of the key's local run; everyone else waits for the
	// tree. The same pass counts the machine's requests, which bound its
	// answers.
	type downMsg struct {
		Key int64
		Val V
	}
	vals := make([]downMsg, 2*k)
	has := make([]bool, 2*k)
	c.Each(func(i int) {
		run := sorted[i]
		for s := 2 * i; s < 2*i+2; s++ {
			si := spans[s]
			if si.A != i || si.B <= si.A {
				continue
			}
			h := bisect(0, len(run), func(j int) bool { return run[j].Key >= si.Key })
			if h < len(run) && run[h].Key == si.Key && run[h].Req < 0 {
				vals[s], has[s] = downMsg{Key: si.Key, Val: run[h].Val}, true
			}
		}
		nreq := 0
		for j := range run {
			if run[j].Req >= 0 {
				nreq++
			}
		}
		starts[i+1] = nreq
	})

	// spanOf is the entry of machine i's span of key, or -1.
	spanOf := func(i int, key int64) int {
		for j := 2 * i; j < 2*i+2; j++ {
			if spans[j].B > spans[j].A && spans[j].Key == key {
				return j
			}
		}
		return -1
	}

	// Tree-down per span: the root holds the value if one exists; forward
	// level by level. fanout is the children span entry j feeds at depth d.
	b := branching(c, vwords+1)
	depth := treeDepth(k, b)
	fanout := func(j, d int) (lo, hi int) {
		si := spans[j]
		p := j/2 - si.A
		if !has[j] || posDepth(p, b) != d {
			return 0, 0 // not this level, or no value for this key
		}
		return childRange(p, b, si.B-si.A+1)
	}
	for d := 0; d < depth; d++ {
		n := 0
		for j := range spans {
			lo, hi := fanout(j, d)
			n += hi - lo
		}
		// Every child gets the same (key, value): the sender's vals entry is
		// the payload of all its messages, and the level's messages are one
		// array.
		msgs := make([]mpc.Msg, 0, n)
		outs := make([][]mpc.Msg, k)
		for i := range outs {
			sent := len(msgs)
			for j := 2 * i; j < 2*i+2; j++ {
				lo, hi := fanout(j, d)
				for ch := lo; ch < hi; ch++ {
					msgs = append(msgs, mpc.Msg{To: spans[j].A + ch, Words: vwords + 1, Data: &vals[j]})
				}
			}
			outs[i] = msgs[sent:len(msgs):len(msgs)]
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return nil, err
		}
		for i, inbox := range ins {
			for _, m := range inbox {
				dm, ok := m.Data.(*downMsg)
				if !ok || dm == nil {
					return nil, fmt.Errorf("prims: unexpected dissemination payload %T", m.Data)
				}
				if j := spanOf(i, dm.Key); j >= 0 {
					vals[j], has[j] = *dm, true
				}
			}
		}
	}

	// Answer the requests: the round's messages and answers are two arrays
	// carved by the request counts; one walk over each sorted run fills them.
	// A key's value on a machine is the head of the key's local run if that
	// is a value, else what came down one of the machine's spans.
	type answer struct {
		Key int64
		Val V
	}
	for i := 0; i < k; i++ {
		starts[i+1] += starts[i]
	}
	msgs := make([]mpc.Msg, starts[k])
	slab := make([]answer, starts[k])
	outs := make([][]mpc.Msg, k)
	c.Each(func(i int) {
		out, slots := msgs[starts[i]:starts[i]:starts[i+1]], slab[starts[i]:starts[i+1]]
		run := sorted[i]
		for h := 0; h < len(run); {
			key := run[h].Key
			var v *V
			if run[h].Req < 0 {
				v = &run[h].Val
			} else if j := spanOf(i, key); j >= 0 && has[j] {
				v = &vals[j].Val
			}
			for ; h < len(run) && run[h].Key == key; h++ {
				if v == nil || run[h].Req < 0 {
					continue
				}
				slots[len(out)] = answer{Key: key, Val: *v}
				out = append(out, mpc.Msg{To: int(run[h].Req), Words: vwords + 1, Data: &slots[len(out)]})
			}
		}
		outs[i] = out
	})
	ins, _, err := c.Exchange(outs, nil)
	if err != nil {
		return nil, err
	}
	result := make([]map[int64]V, k)
	for i, inbox := range ins {
		result[i] = make(map[int64]V, len(inbox))
		for _, m := range inbox {
			a, ok := m.Data.(*answer)
			if !ok || a == nil {
				return nil, fmt.Errorf("prims: unexpected answer payload %T", m.Data)
			}
			result[i][a.Key] = a.Val
		}
	}
	return result, nil
}

// DisseminateFromLarge is the common special case of Claim 3: the large
// machine holds values for a set of keys; machine i needs the keys in
// needs[i].
func DisseminateFromLarge[V any](c *mpc.Cluster, needs [][]int64, values map[int64]V, vwords int) ([]map[int64]V, error) {
	return SegmentedBroadcast(c, needs, nil, sortedKVs(values), vwords)
}

// sortedKVs returns m's entries as a KV slice sorted by key.
func sortedKVs[V any](m map[int64]V) []KV[V] {
	kvs := make([]KV[V], 0, len(m))
	for key, v := range m {
		kvs = append(kvs, KV[V]{K: key, V: v})
	}
	SortKVsByKey(kvs)
	return kvs
}
