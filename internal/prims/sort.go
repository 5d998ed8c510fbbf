package prims

import (
	"cmp"
	"fmt"

	"hetmpc/internal/mpc"
)

// SortKey is the compact, 3-word lexicographic sort key extracted from every
// item. Keeping splitters to 3 words (rather than whole items, which may
// carry large payloads such as labels) keeps the splitter broadcast within
// the small machines' capacity.
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

// Sort implements Claim 1: it sorts the items stored on the small machines
// by their SortKey so that afterwards machine i's items all precede machine
// i+1's items and each machine's slice is locally sorted. It is a sample
// sort:
//
//  1. local sort;
//  2. every machine sends a small weighted key sample to the coordinator
//     (1 round);
//  3. the coordinator picks K-1 splitter keys and broadcasts them (1 round,
//     or a capacity-bounded tree when the list is too large to send K times
//     directly);
//  4. items are routed to their splitter bucket (1 round) and re-sorted.
//
// itemWords is the accounted size of one item.
func Sort[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, error) {
	sorted, _, err := sortSplit(c, data, itemWords, key)
	return sorted, err
}

// sortSplit is Sort that also returns each machine's copy of the splitter
// list: bucket j holds exactly the keys in [sp[j-1], sp[j]) (the list
// clipped to K-1, as walkBuckets clips it), so which keys can straddle which
// machines is a function of the list alone (splitterSpans).
func sortSplit[T any](c *mpc.Cluster, data [][]T, itemWords int, key func(T) SortKey) ([][]T, [][]SortKey, error) {
	defer c.Span("sort").End()
	k := c.K()
	if err := checkBuckets(c, "Sort", data); err != nil {
		return nil, nil, err
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

	// Steps 2–3: sample, pick and broadcast the splitters.
	lists, err := sortSplitters(c, data, key)
	if err != nil {
		return nil, nil, err
	}

	// Step 4: route every item to its bucket. Step 1's local sort makes the
	// buckets contiguous runs, found by walking the splitter boundaries in
	// place (kernels.go). A machine sends at most min(K, items) chunks, so the
	// round's messages and chunk payloads are two arrays carved by that bound
	// here (serially); the parallel walk only fills them in.
	routeOuts := make([][]mpc.Msg, k)
	starts := make([]int, k+1) // machine i's chunks sit at [starts[i], starts[i+1]) of both
	for i := range routeOuts {
		starts[i+1] = starts[i] + min(k, len(data[i]))
	}
	msgs := make([]mpc.Msg, starts[k])
	slab := make([]chunk[T], starts[k])
	c.Each(func(i int) {
		out, slots := msgs[starts[i]:starts[i]:starts[i+1]], slab[starts[i]:starts[i+1]]
		walkBuckets(data[i], lists[i], k, key, func(j int, run []T) {
			out = append(out, chunkMsg(&slots[len(out)], j, run, itemWords))
		})
		routeOuts[i] = out
	})
	ins, _, err := c.Exchange(routeOuts, nil)
	if err != nil {
		return nil, nil, err
	}
	// The K result buckets are one array too: count each inbox (the checked
	// pass — a foreign payload is an error before anything is copied), carve
	// the buckets cap-clamped, then copy and re-sort each in place. starts
	// now holds the buckets' offsets: machine i's items at
	// [starts[i], starts[i+1]).
	if err := c.ForSmall(func(i int) (err error) {
		starts[i+1], err = chunkItems[T](ins[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	for i := 0; i < k; i++ {
		starts[i+1] += starts[i]
	}
	flat := make([]T, starts[k])
	result := make([][]T, k)
	c.Each(func(i int) {
		result[i] = copyChunks(flat[starts[i]:starts[i]:starts[i+1]], ins[i])
		SortLocal(result[i], key)
	})
	// The routed, locally sorted buckets are now the machines' state.
	registerState(c, result, itemWords)
	return result, lists, nil
}

// sortSplitters is steps 2–3 of Sort over locally sorted data: every
// machine sends a weighted key sample to the coordinator, which picks the
// K-1 placement-weighted splitters and broadcasts them; it returns each
// machine's copy of the list.
func sortSplitters[T any](c *mpc.Cluster, data [][]T, key func(T) SortKey) ([][]SortKey, error) {
	k := c.K()
	// Step 2: weighted key samples to the coordinator (sample extraction is
	// local computation, parallel over the small-machine axis).
	q := coordCap(c) / (2 * k * (sortKeyWords + 1))
	if q < 1 {
		q = 1
	}
	if q > 64 {
		q = 64
	}
	// The round's samples are one slab and their keys one array, carved
	// here (serially) so the parallel extraction only fills them in.
	outs := perMachineOuts(k)
	slab := make([]sample, k)
	nkeys := 0
	for i := range slab {
		nkeys += min(q, len(data[i]))
	}
	keyBuf := make([]SortKey, nkeys)
	for i := range slab {
		take := min(q, len(data[i]))
		slab[i] = sample{Keys: keyBuf[:take:take], Count: len(data[i])}
		keyBuf = keyBuf[take:]
	}
	c.Each(func(i int) {
		keys, n := slab[i].Keys, len(data[i])
		for j := range keys {
			keys[j] = key(data[i][j*n/len(keys)])
		}
		outs[i][0] = mpc.Msg{To: coordinator(c), Words: len(keys)*sortKeyWords + 1, Data: &slab[i]}
	})
	inbox, err := toCoordinator(c, outs)
	if err != nil {
		return nil, err
	}

	// Step 3: coordinator picks splitters weighted by machine loads.
	samples, total, err := collectSamples(inbox)
	if err != nil {
		return nil, err
	}
	SortLocal(samples, func(s weightedKey) SortKey { return s.key })
	// Splitter targets are placement-weighted: bucket i should hold a
	// PlaceShare(i)/Σ share of the items under the cluster's placement
	// policy (DESIGN.md §8) — capacity shares under the default cap policy
	// (Frisk's balancing rule), min(capacity, effective speed) under
	// throughput/speculate — so skewed machines receive only what they can
	// absorb (or move in time). With uniform weights (all exactly 1) this
	// reduces to the even split total/k.
	splitters := make([]SortKey, 0, k-1)
	if len(samples) > 0 && total > 0 {
		var totalShare float64
		prefix := make([]float64, k) // prefix[j] = Σ_{i<j} PlaceShare(i)
		for i := 0; i < k; i++ {
			prefix[i] = totalShare
			totalShare += c.PlaceShare(i)
		}
		var cum float64
		next := 1
		target := float64(total) / totalShare
		for _, s := range samples {
			cum += s.weight
			for next < k && cum >= prefix[next]*target {
				splitters = append(splitters, s.key)
				next++
			}
		}
	}

	// Broadcast the splitter list (3 words per splitter).
	return BroadcastValue(c, splitters, len(splitters)*sortKeyWords+1)
}

// sample is one machine's evenly spaced key sample and item count.
type sample struct {
	Keys  []SortKey
	Count int
}

// weightedKey is a sampled key standing for weight items of its machine.
type weightedKey struct {
	key    SortKey
	weight float64
}

// collectSamples is the coordinator's side of the sample round: every
// sampled key weighted by its machine's load, in delivery order, and the
// total item count.
func collectSamples(inbox []mpc.Msg) (samples []weightedKey, total int, err error) {
	n := 0
	for _, m := range inbox {
		s, ok := m.Data.(*sample)
		if !ok || s == nil {
			return nil, 0, fmt.Errorf("prims: unexpected sample payload %T", m.Data)
		}
		n += len(s.Keys)
	}
	samples = make([]weightedKey, 0, n)
	for _, m := range inbox {
		s := m.Data.(*sample)
		total += s.Count
		if len(s.Keys) == 0 {
			continue
		}
		w := float64(s.Count) / float64(len(s.Keys))
		for _, kk := range s.Keys {
			samples = append(samples, weightedKey{key: kk, weight: w})
		}
	}
	return samples, total, nil
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
