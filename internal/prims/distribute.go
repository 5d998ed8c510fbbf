package prims

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
// (Frisk's balancing rule), min(capacity, 1/word cost) under
// throughput/speculate. This models the paper's "edges initially stored on
// the small machines arbitrarily" and costs no rounds (it is the input
// placement). With uniform weights it is an exact round-robin (machine j%k
// gets edge j); under skew the allotment is a smooth weighted round-robin —
// machine i holds a PlaceShare(i)/ΣPlaceShare fraction — which reduces to
// plain round-robin when all weights are equal. A policy whose weights sum
// to zero yields ErrZeroCapacity. A machine dealt no edge gets a nil shard.
// The placed buckets are registered as the machines' recoverable state
// (registerState) when fault injection is active.
func DistributeEdges(c *mpc.Cluster, g *graph.Graph) ([][]graph.Edge, error) {
	defer c.Span("distribute").End()
	k := c.K()
	n := len(g.Edges)
	out := make([][]graph.Edge, k)
	if c.UniformPlacement() {
		// Round-robin counts are exact (machine i gets one extra edge while
		// i < n%k), so the shards carve from a single slab with no append
		// doublings.
		slab, off := make([]graph.Edge, n), 0
		for i := range out {
			cnt := n / k
			if i < n%k {
				cnt++
			}
			if cnt > 0 {
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
	owner, counts, err := weightedAssign(n, shares)
	if err != nil {
		return nil, err
	}
	slab, off := make([]graph.Edge, n), 0
	for i := range out {
		if counts[i] > 0 {
			out[i], off = slab[off:off:off+counts[i]], off+counts[i]
		}
	}
	for i, o := range owner {
		out[o] = append(out[o], g.Edges[i])
	}
	registerState(c, out, EdgeWords)
	return out, nil
}

// weightedAssign deals n items to machines in proportion to their capacity
// shares and returns each item's owner and each machine's count: the counts
// come from largest-remainder apportionment (exact proportionality within
// one item), and the items interleave by one SortLocal of every machine's
// evenly spaced virtual positions (smallest position first, lowest index on
// ties). Deterministic, and with equal shares the schedule is exactly
// round-robin. Shares that sum to zero (or are not finite) would divide by
// zero in the quota computation; that degenerate profile surfaces as
// ErrZeroCapacity instead.
func weightedAssign(n int, shares []float64) (owner, counts []int, err error) {
	k := len(shares)
	var totalShare float64
	for i := 0; i < k; i++ {
		totalShare += shares[i]
	}
	if !(totalShare > 0) { // catches 0, NaN and negative sums alike
		return nil, nil, fmt.Errorf("%w: capacity shares sum to %v over K=%d machines",
			ErrZeroCapacity, totalShare, k)
	}
	// Largest-remainder counts: floor the quotas, then hand the leftover
	// items to the largest fractional parts (lowest index on ties).
	counts = make([]int, k)
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

	// Interleave: machine i's t-th item sits at virtual position
	// (t + ½)·n/counts[i], accumulated from half a period one period at a
	// time; ordering every position by (position, machine) spreads every
	// machine's items evenly over the deal order.
	type slot struct {
		pos float64
		i   int
	}
	slots := make([]slot, 0, n)
	for i, cnt := range counts {
		p := float64(n) / float64(cnt)
		for t, pos := 0, p/2; t < cnt; t, pos = t+1, pos+p {
			slots = append(slots, slot{pos, i})
		}
	}
	SortLocal(slots, func(s slot) SortKey { return SortKey{A: int64(math.Float64bits(s.pos)), B: int64(s.i)} })
	owner = make([]int, n)
	for j, s := range slots {
		owner[j] = s.i
	}
	return owner, counts, nil
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
