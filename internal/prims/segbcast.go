package prims

import (
	"fmt"
	"slices"

	"hetmpc/internal/mpc"
)

// SegmentedBroadcast implements Claim 3 (dissemination): per-key values —
// held by the large machine and/or scattered over the small machines — are
// delivered to every small machine that requests the key. needs[i] lists the
// (deduplicated) keys machine i requires; the result maps mirror needs.
//
// Protocol: value items and request items are sorted together by
// (key, kind), so each key's run starts with its value at the run's first
// machine; runs spanning several machines broadcast the value down a
// capacity-bounded interval tree (the paper's trees of Claims 2/3); finally
// each request is answered to its requester. Requests for keys with no value
// are silently unanswered (absent from the result map).
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
		Key  int64
		Rank int32 // 0 = value, 1 = request
		Req  int32 // requester (rank 1)
		Orig int32 // origin machine, tiebreak
		Seq  int32 // origin sequence, tiebreak
		Val  V
	}
	itemWords := vwords + 3
	itemKey := func(it item) SortKey {
		return SortKey{A: it.Key, B: int64(it.Rank), C: int64(it.Orig)<<32 | int64(it.Seq)}
	}

	// Round 0 (optional): inject the large machine's values, hashed across
	// the machines; they only need to enter the sort somewhere.
	injected := make([][]KV[V], k)
	if len(largeValues) > 0 {
		if !c.HasLarge() {
			return nil, fmt.Errorf("prims: large values without a large machine")
		}
		perMachine := make([][]KV[V], k)
		for _, kv := range largeValues {
			m := hashKeyToMachine(kv.K, k)
			perMachine[m] = append(perMachine[m], kv)
		}
		got, err := ScatterFromLarge(c, perMachine, vwords+1)
		if err != nil {
			return nil, err
		}
		injected = got
	}

	// Build combined item lists, carved from one array by their known
	// lengths.
	count := func(i int) int {
		n := len(injected[i])
		if i < len(smallValues) {
			n += len(smallValues[i])
		}
		if i < len(needs) {
			n += len(needs[i])
		}
		return n
	}
	total := 0
	for i := 0; i < k; i++ {
		total += count(i)
	}
	flat := make([]item, total)
	items := make([][]item, k)
	for i := range items {
		n := count(i)
		items[i] = flat[:0:n]
		flat = flat[n:]
	}
	if err := c.ForSmall(func(i int) error {
		var seq int32
		add := func(it item) {
			it.Orig = int32(i)
			it.Seq = seq
			seq++
			items[i] = append(items[i], it)
		}
		if i < len(smallValues) {
			for _, kv := range smallValues[i] {
				add(item{Key: kv.K, Rank: 0, Req: -1, Val: kv.V})
			}
		}
		for _, kv := range injected[i] {
			add(item{Key: kv.K, Rank: 0, Req: -1, Val: kv.V})
		}
		if i < len(needs) {
			for _, key := range needs[i] {
				add(item{Key: key, Rank: 1, Req: int32(i)})
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	sorted, err := Sort(c, items, itemWords, itemKey)
	if err != nil {
		return nil, err
	}

	spans, err := reportBounds(c, func(i int) boundsReport {
		if len(sorted[i]) == 0 {
			return boundsReport{}
		}
		return boundsReport{First: sorted[i][0].Key, Last: sorted[i][len(sorted[i])-1].Key, NonEmpty: true}
	})
	if err != nil {
		return nil, err
	}
	instr, err := sendSpanInstructions(c, spans)
	if err != nil {
		return nil, err
	}

	// Per machine: resolve values for fully local runs.
	resolved := make([]map[int64]V, k)
	if err := c.ForSmall(func(i int) error {
		nv := len(instr[i]) // a span's value may arrive from up the tree
		for _, it := range sorted[i] {
			if it.Rank == 0 {
				nv++
			}
		}
		resolved[i] = make(map[int64]V, nv)
		for _, it := range sorted[i] {
			if it.Rank != 0 {
				continue
			}
			if _, ok := resolved[i][it.Key]; !ok {
				resolved[i][it.Key] = it.Val
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Tree-down per spanning run: the root (first machine of the run) holds
	// the value if one exists; forward level by level.
	type downMsg struct {
		Key int64
		Val V
	}
	b := branching(c, vwords+1)
	depth := treeDepth(k, b)
	for d := 0; d < depth; d++ {
		outs := make([][]mpc.Msg, k)
		for i := 0; i < k; i++ {
			for _, si := range instr[i] {
				p := i - si.A
				size := si.B - si.A + 1
				if posDepth(p, b) != d {
					continue
				}
				v, ok := resolved[i][si.Key]
				if !ok {
					continue // no value for this key, or not yet received
				}
				lo, hi := childRange(p, b, size)
				if lo == hi {
					continue
				}
				// Every child gets the same (key, value): one payload per
				// sender per span, shared by its messages.
				dm := &downMsg{Key: si.Key, Val: v}
				outs[i] = slices.Grow(outs[i], hi-lo)
				for ch := lo; ch < hi; ch++ {
					outs[i] = append(outs[i], mpc.Msg{To: si.A + ch, Words: vwords + 1, Data: dm})
				}
			}
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
				if _, exists := resolved[i][dm.Key]; !exists {
					resolved[i][dm.Key] = dm.Val
				}
			}
		}
	}

	// Answer the requests.
	type answer struct {
		Key int64
		Val V
	}
	outs := make([][]mpc.Msg, k)
	for i := 0; i < k; i++ {
		// The request count bounds the answers, which sizes the machine's
		// out-list and its answer slab.
		nreq := 0
		for _, it := range sorted[i] {
			if it.Rank == 1 {
				nreq++
			}
		}
		if nreq == 0 {
			continue
		}
		outs[i] = make([]mpc.Msg, 0, nreq)
		slab := make([]answer, 0, nreq)
		for _, it := range sorted[i] {
			if it.Rank != 1 {
				continue
			}
			v, ok := resolved[i][it.Key]
			if !ok {
				continue
			}
			slab = append(slab, answer{Key: it.Key, Val: v})
			outs[i] = append(outs[i], mpc.Msg{To: int(it.Req), Words: vwords + 1, Data: &slab[len(slab)-1]})
		}
	}
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
