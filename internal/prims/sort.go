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
	defer c.Span("sort").End()
	k := c.K()
	if len(data) < k {
		nd := make([][]T, k)
		copy(nd, data)
		data = nd
	}
	// Under fault injection the input buckets are the machines' live state
	// until the routed buckets replace them below.
	RegisterState(c, data, itemWords)

	// Step 1: local sort (parallel local computation, no rounds).
	if err := c.ForSmall(func(i int) error {
		SortLocal(data[i], key)
		return nil
	}); err != nil {
		return nil, err
	}

	// Steps 2–3: sample, pick and broadcast the splitters.
	lists, err := sortSplitters(c, data, key)
	if err != nil {
		return nil, err
	}

	// Step 4: route every item to its bucket. Step 1's local sort makes the
	// buckets contiguous runs, found by binary-searching each splitter
	// boundary (kernels.go).
	routeOuts := make([][]mpc.Msg, k)
	if err := c.ForSmall(func(i int) error {
		for j, b := range scatterSortedByKey(data[i], lists[i], k, key) {
			if len(b) > 0 {
				routeOuts[i] = append(routeOuts[i], chunkMsg(j, b, itemWords))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ins, _, err := c.Exchange(routeOuts, nil)
	if err != nil {
		return nil, err
	}
	result := make([][]T, k)
	if err := c.ForSmall(func(i int) error {
		var err error
		if result[i], err = appendChunks([]T{}, ins[i]); err != nil {
			return err
		}
		SortLocal(result[i], key)
		return nil
	}); err != nil {
		return nil, err
	}
	// The routed, locally sorted buckets are now the machines' state.
	RegisterState(c, result, itemWords)
	return result, nil
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
	type sample struct {
		Keys  []SortKey
		Count int
	}
	outs := make([][]mpc.Msg, k)
	if err := c.ForSmall(func(i int) error {
		n := len(data[i])
		take := q
		if take > n {
			take = n
		}
		keys := make([]SortKey, 0, take)
		for j := 0; j < take; j++ {
			keys = append(keys, key(data[i][j*n/take]))
		}
		outs[i] = []mpc.Msg{{To: coordinator(c), Words: len(keys)*sortKeyWords + 1, Data: sample{Keys: keys, Count: n}}}
		return nil
	}); err != nil {
		return nil, err
	}
	inbox, err := toCoordinator(c, outs)
	if err != nil {
		return nil, err
	}

	// Step 3: coordinator picks splitters weighted by machine loads.
	type weighted struct {
		key    SortKey
		weight float64
	}
	var samples []weighted
	total := 0
	for _, m := range inbox {
		s, ok := m.Data.(sample)
		if !ok {
			return nil, fmt.Errorf("prims: unexpected sample payload %T", m.Data)
		}
		total += s.Count
		if len(s.Keys) == 0 {
			continue
		}
		w := float64(s.Count) / float64(len(s.Keys))
		for _, kk := range s.Keys {
			samples = append(samples, weighted{key: kk, weight: w})
		}
	}
	SortLocal(samples, func(s weighted) SortKey { return s.key })
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
