package prims

import "hetmpc/internal/mpc"

// localCombine is the first step of AggregateByKey and PlanCombine: one
// machine's items combined per key, sorted by key. It sorts a copy, in buf's
// array, and folds adjacent runs in place; the stable sort keeps each key's
// occurrences in input order, so the left-fold per key — and therefore every
// combined value — is exactly that of folding into a map in input order and
// sorting the result (the oracle TestAggregateCombineKernelMatchesMap pins
// it against).
func localCombine[V any](buf, items []KV[V], combine func(a, b V) V) []KV[V] {
	buf = append(buf[:0], items...)
	SortKVsByKey(buf)
	return foldRuns(buf, combine)
}

// localCombineAll is localCombine on every machine, the partials carved from
// one array.
func localCombineAll[V any](c *mpc.Cluster, items [][]KV[V], combine func(a, b V) V) [][]KV[V] {
	k := c.K()
	starts := make([]int, k+1)
	for i := 0; i < k; i++ {
		starts[i+1] = starts[i] + lenAt(items, i)
	}
	flat := make([]KV[V], starts[k])
	partials := make([][]KV[V], k)
	c.Each(func(i int) {
		if i < len(items) {
			partials[i] = localCombine(flat[starts[i]:starts[i]:starts[i+1]], items[i], combine)
		}
	})
	return partials
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
// `combine`. The protocol is: local combine → sort the partials by key →
// fold each machine's equal-key runs. The sort key is the aggregation key
// alone and Sort routes by key, so every partial of a key lands in one
// bucket: the fold leaves one entry per key globally, no run straddles a
// machine boundary, and the rounds charged are exactly Sort's. roots[i]
// lists the keys finalized at machine i, strictly increasing, and every key
// of roots[i] is below every key of roots[j] for i < j — the sorted runs the
// protocol ends on, which is the form SegmentedBroadcast takes distributed
// values in.
//
// Capacity: after the local combine a key has at most one partial per
// machine, so its owner receives at most K·(vwords+1) words for it; a hot
// key on a cluster where that exceeds the owner's capacity is refused by
// Sort's route round with the engine's typed mpc.ErrCapacity naming the
// receiving machine, never clipped.
//
// Bucket assignment is placement-aware through the Sort step: the key
// ranges each machine ends up owning follow the cluster's placement policy
// (PlaceShare weighting of the splitters, DESIGN.md §8), so slow or small
// machines own fewer keys under throughput/speculate placement.
//
// If gatherLarge is true an extra round ships every (key, value) to the
// large machine and atLarge holds them all; the caller is responsible for
// the total fitting the large machine's capacity (≤ Õ(n) keys, as in every
// use in the paper).
//
// combine must be associative and commutative. It receives ownership of both
// arguments: for pointer-typed V it may mutate and return either one (no
// value it has combined away is ever read again), which lets sketch-like
// values merge without cloning. vwords is the value size in words.
func AggregateByKey[V any](
	c *mpc.Cluster,
	items [][]KV[V],
	vwords int,
	combine func(a, b V) V,
	gatherLarge bool,
) (roots [][]KV[V], atLarge map[int64]V, err error) {
	defer c.Span("aggregate").End()
	if err := checkBuckets(c, "AggregateByKey", items); err != nil {
		return nil, nil, err
	}

	// Local combine, then the global sort by key.
	partials := localCombineAll(c, items, combine)
	roots, err = Sort(c, partials, vwords+1, func(kv KV[V]) SortKey { return SortKey{A: kv.K} })
	if err != nil {
		return nil, nil, err
	}

	// Fold the ≤ K partials of each key: the sort key is the aggregation key
	// alone, so they all sit in one bucket, adjacent.
	c.Each(func(i int) {
		roots[i] = foldRuns(roots[i], combine)
	})
	// The folded runs are the machines' recoverable state from here on (Sort
	// registered the pre-fold buckets; re-register so checkpoints see the
	// shrunken volume).
	registerState(c, roots, vwords+1)
	if !gatherLarge {
		return roots, nil, nil
	}
	atLarge, err = GatherMap(c, roots, vwords)
	return roots, atLarge, err
}

// GatherMap ships every machine's (key, value) pairs to the large machine
// (GatherToLarge, one round at vwords+1 words a pair) and returns them as one
// map — the gatherLarge step of AggregateByKey, and what a PlanCombine's
// roots take to reach the large machine.
func GatherMap[V any](c *mpc.Cluster, kvs [][]KV[V], vwords int) (map[int64]V, error) {
	all, err := GatherToLarge(c, kvs, vwords+1)
	if err != nil {
		return nil, err
	}
	m := make(map[int64]V, len(all))
	for _, kv := range all {
		m[kv.K] = kv.V
	}
	return m, nil
}
