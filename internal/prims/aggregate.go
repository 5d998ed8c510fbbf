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
// machine of its run ("M_first(key)" in the paper); roots[i] lists the keys
// finalized at machine i, strictly increasing, and every key of roots[i] is
// below every key of roots[j] for i < j — the sorted runs the protocol ends
// on, which is the form SegmentedBroadcast takes distributed values in.
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
	// Per machine, one accumulator per span it is in (instr[i], at most two):
	// the machine's own value for the span's key — an empty bridge machine
	// starts without one — combined with what its tree children send up.
	type acc struct {
		Val V
		Has bool
	}
	local := make([][]acc, k)
	spanOf := func(i int, key int64) int {
		for s := range instr[i] {
			if instr[i][s].Key == key {
				return s
			}
		}
		return -1
	}
	if err := c.ForSmall(func(i int) error {
		if len(instr[i]) == 0 {
			return nil
		}
		local[i] = make([]acc, len(instr[i]))
		for _, kv := range sorted[i] {
			if s := spanOf(i, kv.K); s >= 0 {
				local[i][s] = acc{Val: kv.V, Has: true}
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
			for s, si := range instr[i] {
				p := i - si.A
				size := si.B - si.A + 1
				if p <= 0 || p >= size || posDepth(p, b) != d {
					continue
				}
				a := &local[i][s]
				if !a.Has {
					continue // empty bridge machine: nothing to contribute
				}
				if slab == nil {
					slab = make([]upMsg, 0, len(instr[i]))
					outs[i] = make([]mpc.Msg, 0, len(instr[i]))
				}
				slab = append(slab, upMsg{Key: si.Key, Val: a.Val})
				parent := si.A + posParent(p, b)
				outs[i] = append(outs[i], mpc.Msg{To: parent, Words: vwords + 1, Data: &slab[len(slab)-1]})
				a.Has = false
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
				// Only tree children send here, and they are in the span.
				if a := &local[i][spanOf(i, um.Key)]; a.Has {
					a.Val = combine(a.Val, um.Val)
				} else {
					*a = acc{Val: um.Val, Has: true}
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}

	// Each machine's finalized keys, filtered in place from its sorted run:
	// a spanning key survives only at its run's first machine, with the
	// tree's value. sorted itself keeps its lengths — it is the registered
	// checkpoint state, and its volume is what a later barrier replicates.
	roots = make([][]KV[V], k)
	if err := c.ForSmall(func(i int) error {
		roots[i] = sorted[i][:0]
		for _, kv := range sorted[i] {
			if s := spanOf(i, kv.K); s >= 0 {
				if instr[i][s].A != i {
					continue
				}
				kv.V = local[i][s].Val
			}
			roots[i] = append(roots[i], kv)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	if !gatherLarge {
		return roots, nil, nil
	}
	all, err := GatherToLarge(c, roots, vwords+1)
	if err != nil {
		return nil, nil, err
	}
	atLarge = make(map[int64]V, len(all))
	for _, kv := range all {
		atLarge[kv.K] = kv.V
	}
	return roots, atLarge, nil
}
