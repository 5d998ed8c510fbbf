package prims

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// EdgeWords is the accounted size of one undirected edge (two endpoints and
// a weight).
const EdgeWords = 3

// ErrZeroCapacity is returned by placement primitives when the cluster
// profile's capacity shares sum to zero (or are not finite), leaving no
// machine able to hold anything.
var ErrZeroCapacity = errors.New("prims: zero total capacity")

// DistributeEdges places the input graph's edges on the small machines in
// proportion to their placement weights under the cluster's placement
// policy (DESIGN.md §8): capacity shares under the default cap policy
// (Frisk's balancing rule), min(capacity, effective speed) under
// throughput/speculate. This models the paper's "edges initially stored on
// the small machines arbitrarily" and costs no rounds (it is the input
// placement). With uniform weights it is an exact round-robin (machine j%k
// gets edge j); under skew the allotment is a smooth weighted round-robin —
// machine i holds a PlaceShare(i)/ΣPlaceShare fraction — which reduces to
// plain round-robin when all weights are equal. A policy whose weights sum
// to zero yields ErrZeroCapacity. The placed buckets are registered as the
// machines' recoverable state (registerState) when fault injection is
// active.
func DistributeEdges(c *mpc.Cluster, g *graph.Graph) ([][]graph.Edge, error) {
	defer c.Span("distribute").End()
	k := c.K()
	n := len(g.Edges)
	out := make([][]graph.Edge, k)
	if c.UniformPlacement() {
		// Round-robin counts are exact (machine i gets one extra edge while
		// i < n%k), so the shards carve from a single slab with no append
		// doublings. Machines past the edge count keep the historical
		// non-nil empty shard.
		slab, off := make([]graph.Edge, n), 0
		for i := range out {
			cnt := n / k
			if i < n%k {
				cnt++
			}
			if cnt == 0 {
				out[i] = emptyEdges
			} else {
				out[i], off = slab[off:off:off+cnt], off+cnt
			}
		}
		for j, e := range g.Edges {
			out[j%k] = append(out[j%k], e) // always within the carved cap
		}
		registerState(c, out, EdgeWords)
		return out, nil
	}
	shares := make([]float64, k)
	for i := range shares {
		shares[i] = c.PlaceShare(i)
	}
	owner, err := weightedAssign(n, shares)
	if err != nil {
		return nil, err
	}
	counts := make([]int, k)
	for _, o := range owner {
		counts[o]++
	}
	slab, off := make([]graph.Edge, n), 0
	for i := range out {
		if counts[i] > 0 { // zero-count shards stay nil, as before
			out[i], off = slab[off:off:off+counts[i]], off+counts[i]
		}
	}
	for i, o := range owner {
		out[o] = append(out[o], g.Edges[i])
	}
	registerState(c, out, EdgeWords)
	return out, nil
}

// emptyEdges is the shared zero-length (but non-nil) shard handed to
// machines that receive no edges under uniform placement — preserving the
// historical make([]graph.Edge, 0, per) semantics that distinguish "empty
// shard" from "no shard" in deep-equality comparisons.
var emptyEdges = []graph.Edge{}

// weightedAssign deals n items to machines in proportion to their capacity
// shares: per-machine counts come from largest-remainder apportionment
// (exact proportionality within one item), and the items interleave by
// merging each machine's evenly spaced virtual positions through a heap
// (smallest position first, lowest index on ties). O(n log k),
// deterministic, and with equal shares the schedule is exactly
// round-robin. Shares that sum to zero (or are not finite) would divide by
// zero in the quota computation; that degenerate profile surfaces as
// ErrZeroCapacity instead.
func weightedAssign(n int, shares []float64) ([]int, error) {
	k := len(shares)
	var totalShare float64
	for i := 0; i < k; i++ {
		totalShare += shares[i]
	}
	if !(totalShare > 0) { // catches 0, NaN and negative sums alike
		return nil, fmt.Errorf("%w: capacity shares sum to %v over K=%d machines",
			ErrZeroCapacity, totalShare, k)
	}
	// Largest-remainder counts: floor the quotas, then hand the leftover
	// items to the largest fractional parts (lowest index on ties).
	counts := make([]int, k)
	type frac struct {
		f float64
		i int
	}
	fracs := make([]frac, k)
	assigned := 0
	for i := 0; i < k; i++ {
		q := float64(n) * shares[i] / totalShare
		counts[i] = int(q)
		assigned += counts[i]
		fracs[i] = frac{q - float64(counts[i]), i}
	}
	slices.SortFunc(fracs, func(a, b frac) int {
		if a.f != b.f {
			return cmp.Compare(b.f, a.f) // descending remainder
		}
		return cmp.Compare(a.i, b.i)
	})
	for j := 0; j < n-assigned; j++ {
		counts[fracs[j%k].i]++
	}

	// Interleave: machine i's j-th item sits at virtual position
	// (j + ½)·n/counts[i]; merging positions spreads every machine's
	// items evenly over the deal order.
	type slot struct {
		pos    float64
		period float64
		i      int
		left   int
	}
	less := func(a, b slot) bool { return a.pos < b.pos || (a.pos == b.pos && a.i < b.i) }
	h := make([]slot, 0, k)
	for i := 0; i < k; i++ {
		if counts[i] == 0 {
			continue
		}
		p := float64(n) / float64(counts[i])
		h = append(h, slot{pos: p / 2, period: p, i: i, left: counts[i]})
	}
	down := func(root int) {
		for {
			child := 2*root + 1
			if child >= len(h) {
				return
			}
			if child+1 < len(h) && less(h[child+1], h[child]) {
				child++
			}
			if !less(h[child], h[root]) {
				return
			}
			h[root], h[child] = h[child], h[root]
			root = child
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	owner := make([]int, n)
	for j := 0; j < n; j++ {
		owner[j] = h[0].i
		h[0].left--
		if h[0].left == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0].pos += h[0].period
		}
		down(0)
	}
	return owner, nil
}

// CountItems returns the total number of items across machines.
func CountItems[T any](data [][]T) int {
	n := 0
	for i := range data {
		n += len(data[i])
	}
	return n
}

// Counts returns the per-machine item counts as int64s, the input shape of
// SumToLarge and SumAll.
func Counts[T any](data [][]T) []int64 {
	out := make([]int64, len(data))
	for i := range data {
		out[i] = int64(len(data[i]))
	}
	return out
}

// Endpoints lays each machine's edges out as keys, edge j's U at position
// 2j and V at 2j+1: DistinctSlots of them is the needs of the plan of the
// edges' endpoints, and each edge's two slots in it. Every machine's keys are
// carved from one array.
func Endpoints[E interface{ Ends() (int, int) }](edges [][]E) [][]int64 {
	flat, keys := make([]int64, 0, 2*CountItems(edges)), make([][]int64, len(edges))
	for i, es := range edges {
		for _, e := range es {
			u, v := e.Ends()
			flat = append(flat, int64(u), int64(v))
		}
		keys[i], flat = flat[:len(flat):len(flat)], flat[len(flat):]
	}
	return keys
}

// Flatten concatenates all machines' items (a test/validation helper; real
// algorithms never do this outside the model).
func Flatten[T any](data [][]T) []T {
	out := make([]T, 0, CountItems(data))
	for i := range data {
		out = append(out, data[i]...)
	}
	return out
}
