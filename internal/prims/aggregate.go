package prims

import (
	"fmt"

	"hetmpc/internal/arena"
	"hetmpc/internal/mpc"
)

// localCombine is AggregateByKey's first step: one machine's items combined
// per key, sorted by key. It sorts a slab-backed copy and folds adjacent
// runs in place; the stable sort keeps each key's occurrences in input
// order, so the left-fold per key — and therefore every combined value — is
// exactly that of folding into a map in input order and sorting the result
// (the oracle TestAggregateCombineKernelMatchesMap pins it against).
func localCombine[V any](items []KV[V], combine func(a, b V) V) []KV[V] {
	buf := arena.New[KV[V]](len(items)).AllocUninit(len(items))
	copy(buf, items)
	SortKVsByKey(buf)
	return foldRuns(buf, combine)
}

// foldRuns left-folds each run of equal adjacent keys into its first entry,
// in place, and returns the shortened slice.
func foldRuns[V any](kvs []KV[V], combine func(a, b V) V) []KV[V] {
	out := kvs[:0]
	for _, kv := range kvs {
		if len(out) > 0 && out[len(out)-1].K == kv.K {
			out[len(out)-1].V = combine(out[len(out)-1].V, kv.V)
		} else {
			out = append(out, kv)
		}
	}
	return out
}

// AggregateByKey implements Claim 2: items (key, value) spread over the
// small machines are combined per key with the aggregation function
// `combine`. The protocol is: local combine → sort partials by key → detect
// runs that span machine boundaries → combine up a capacity-bounded tree per
// spanning run. Afterwards each key's final value is held by the first
// machine of its run ("M_first(key)" in the paper); roots[i] maps the keys
// finalized at machine i.
//
// Bucket assignment is placement-aware through the Sort step: the key
// ranges each machine ends up owning follow the cluster's placement policy
// (PlaceShare weighting of the splitters, DESIGN.md §8), so slow or small
// machines own fewer keys under throughput/speculate placement. The
// tree-combine branching stays capacity-bounded (MinSmallCap), since a
// tree message must fit the receiving machine regardless of its placement
// weight.
//
// If gatherLarge is true an extra round ships every (key, value) to the
// large machine and atLarge holds them all; the caller is responsible for
// the total fitting the large machine's capacity (≤ Õ(n) keys, as in every
// use in the paper).
//
// combine must be associative and commutative. It receives ownership of both
// arguments: for pointer-typed V it may mutate and return `a` (no value it
// has combined away is ever read again), which lets sketch-like values merge
// without cloning. vwords is the value size in words.
func AggregateByKey[V any](
	c *mpc.Cluster,
	items [][]KV[V],
	vwords int,
	combine func(a, b V) V,
	gatherLarge bool,
) (roots []map[int64]V, atLarge map[int64]V, err error) {
	defer c.Span("aggregate").End()
	k := c.K()
	if err := checkBuckets(c, "AggregateByKey", items); err != nil {
		return nil, nil, err
	}
	if len(items) < k {
		ni := make([][]KV[V], k)
		copy(ni, items)
		items = ni
	}

	// Local combine.
	partials := make([][]KV[V], k)
	if err := c.ForSmall(func(i int) error {
		partials[i] = localCombine(items[i], combine)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Global sort by key.
	sorted, err := Sort(c, partials, vwords+1, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
	if err != nil {
		return nil, nil, err
	}

	// Local combine of same-key runs that were routed to the same machine.
	if err := c.ForSmall(func(i int) error {
		sorted[i] = foldRuns(sorted[i], combine)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	// The combined runs are the machines' recoverable state through the
	// tree-combine rounds below (Sort registered the pre-combine buckets;
	// re-register so checkpoints see the shrunken volume).
	if err := RegisterState(c, sorted, vwords+1); err != nil {
		return nil, nil, err
	}

	// Boundary reports → spanning runs.
	spans, err := reportBounds(c, func(i int) boundsReport {
		if len(sorted[i]) == 0 {
			return boundsReport{}
		}
		return boundsReport{First: sorted[i][0].K, Last: sorted[i][len(sorted[i])-1].K, NonEmpty: true}
	})
	if err != nil {
		return nil, nil, err
	}
	instr, err := sendSpanInstructions(c, spans)
	if err != nil {
		return nil, nil, err
	}

	// Tree-combine each spanning run upward, level by level. The branching
	// factor is capacity-bounded (the concrete form of the paper's
	// branching-n^γ trees) and the depth loop is over the public bound
	// treeDepth(K, b), so the round count depends only on public parameters.
	b := branching(c, vwords+1)
	depth := treeDepth(k, b)
	// Per machine: value for each spanning key it participates in (local
	// computation, parallel over the small-machine axis).
	local := make([]map[int64]V, k)
	if err := c.ForSmall(func(i int) error {
		local[i] = make(map[int64]V, len(instr[i]))
		for _, kv := range sorted[i] {
			for _, si := range instr[i] {
				if si.Key == kv.K {
					local[i][kv.K] = kv.V
				}
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	type upMsg struct {
		Key int64
		Val V
	}
	for d := depth; d >= 1; d-- {
		outs := make([][]mpc.Msg, k)
		if err := c.ForSmall(func(i int) error {
			// A machine sends at most one message per span it is in: that
			// sizes its out-list and its payload slab, taken on the first
			// send.
			var slab []upMsg
			for _, si := range instr[i] {
				p := i - si.A
				size := si.B - si.A + 1
				if p <= 0 || p >= size || posDepth(p, b) != d {
					continue
				}
				v, ok := local[i][si.Key]
				if !ok {
					continue // empty bridge machine: nothing to contribute
				}
				if slab == nil {
					slab = make([]upMsg, 0, len(instr[i]))
					outs[i] = make([]mpc.Msg, 0, len(instr[i]))
				}
				slab = append(slab, upMsg{Key: si.Key, Val: v})
				parent := si.A + posParent(p, b)
				outs[i] = append(outs[i], mpc.Msg{To: parent, Words: vwords + 1, Data: &slab[len(slab)-1]})
				delete(local[i], si.Key)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		ins, _, err := c.Exchange(outs, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := c.ForSmall(func(i int) error {
			for _, m := range ins[i] {
				um, ok := m.Data.(*upMsg)
				if !ok || um == nil {
					return fmt.Errorf("prims: unexpected aggregate payload %T", m.Data)
				}
				if cur, ok := local[i][um.Key]; ok {
					local[i][um.Key] = combine(cur, um.Val)
				} else {
					local[i][um.Key] = um.Val
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}

	// Assemble per-machine final maps: all non-spanning keys plus spanning
	// keys rooted here.
	roots = make([]map[int64]V, k)
	if err := c.ForSmall(func(i int) error {
		spanKey := make(map[int64]bool, len(instr[i]))
		for _, si := range instr[i] {
			spanKey[si.Key] = true
		}
		roots[i] = make(map[int64]V, len(sorted[i]))
		for _, kv := range sorted[i] {
			if !spanKey[kv.K] {
				roots[i][kv.K] = kv.V
			}
		}
		for _, si := range instr[i] {
			if si.A != i {
				continue
			}
			if v, ok := local[i][si.Key]; ok {
				roots[i][si.Key] = v
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	if !gatherLarge {
		return roots, nil, nil
	}
	flat := make([][]KV[V], k)
	if err := c.ForSmall(func(i int) error {
		flat[i] = sortedKVs(roots[i])
		return nil
	}); err != nil {
		return nil, nil, err
	}
	all, err := GatherToLarge(c, flat, vwords+1)
	if err != nil {
		return nil, nil, err
	}
	atLarge = make(map[int64]V, len(all))
	for _, kv := range all {
		atLarge[kv.K] = kv.V
	}
	return roots, atLarge, nil
}
