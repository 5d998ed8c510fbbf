package prims

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// placement). The allotment is a smooth weighted round-robin (apportion,
// then deal): machine i holds a PlaceShare(i)/ΣPlaceShare fraction, and with
// equal weights machine j%k gets edge j. A policy whose weights sum to zero
// yields ErrZeroCapacity. A machine dealt no edge gets a nil shard. The
// placed buckets are registered as the machines' recoverable state
// (registerState) when fault injection is active.
func DistributeEdges(c *mpc.Cluster, g *graph.Graph) ([][]graph.Edge, error) {
	defer c.Span("distribute").End()
	shares := make([]float64, c.K())
	for i := range shares {
		shares[i] = c.PlaceShare(i)
	}
	counts, err := apportion(len(g.Edges), shares)
	if err != nil {
		return nil, err
	}
	// The counts are exact, so the shards carve from a single slab with no
	// append doublings.
	out, slab, off := make([][]graph.Edge, len(shares)), make([]graph.Edge, len(g.Edges)), 0
	for i, cnt := range counts {
		if cnt > 0 {
			out[i], off = slab[off:off:off+cnt], off+cnt
		}
	}
	j := 0
	deal(len(g.Edges), counts, func(i int) {
		out[i], j = append(out[i], g.Edges[j]), j+1 // always within the carved cap
	})
	registerState(c, out, EdgeWords)
	return out, nil
}

// weightedAssign is the deal in owner form: each item's machine, in deal
// order, and each machine's count.
func weightedAssign(n int, shares []float64) (owner, counts []int, err error) {
	if counts, err = apportion(n, shares); err != nil {
		return nil, nil, err
	}
	owner = make([]int, 0, n)
	deal(n, counts, func(i int) { owner = append(owner, i) })
	return owner, counts, nil
}

// apportion splits n items over machines in proportion to their shares by
// largest remainder: floor the quotas, then hand the leftover items to the
// largest fractional parts, lowest index on ties. Shares that sum to zero
// (or are not finite) would divide by zero; they yield ErrZeroCapacity.
func apportion(n int, shares []float64) ([]int, error) {
	k := len(shares)
	var totalShare float64
	for i := 0; i < k; i++ {
		totalShare += shares[i]
	}
	if !(totalShare > 0) { // catches 0, NaN and negative sums alike
		return nil, fmt.Errorf("%w: capacity shares sum to %v over K=%d machines",
			ErrZeroCapacity, totalShare, k)
	}
	counts, frac, order := make([]int, k), make([]float64, k), make([]int, k)
	assigned := 0
	for i := range counts {
		q := float64(n) * shares[i] / totalShare
		counts[i] = int(q)
		assigned += counts[i]
		frac[i], order[i] = q-float64(counts[i]), i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(frac[b], frac[a]), a-b) })
	for j := 0; j < n-assigned; j++ {
		counts[order[j%k]]++
	}
	return counts, nil
}

// dealScratch is deal's working state, pooled across calls.
type dealScratch struct {
	period, pos     []float64
	next, win, head []int32
}

var dealPool = sync.Pool{New: func() any { return new(dealScratch) }}

// deal hands out n items, counts[i] of them to machine i, calling place with
// each item's machine in turn: machine i's t-th item sits at virtual position
// (t + ½)·p_i, p_i = n/counts[i], accumulated one period at a time, and the
// items go in (position, machine) order, so each machine's spread evenly.
// With equal counts (to within one, the larger first) that is round-robin.
//
// A count is at most n, so p_i ≥ 1 and a machine has at most one position in
// each unit window [w, w+1). The deal walks the windows over a ring of window
// lists, a machine waiting at most ⌊max p_i⌋ + 2 windows ahead, and
// insertion-sorts each window's machines. A window is read in the order its
// machines joined, so equal periods arrive in machine order and sort in
// linear time. The scratch is O(K + max p_i).
func deal(n int, counts []int, place func(i int)) {
	s := dealPool.Get().(*dealScratch)
	defer dealPool.Put(s)
	k := len(counts)
	period, pos, next, win := window(&s.period, k), window(&s.pos, k), window(&s.next, k), window(&s.win, k)
	maxP := 0.0
	for i, cnt := range counts {
		if cnt > 0 {
			period[i] = float64(n) / float64(cnt)
			pos[i] = -period[i] / 2 // wait's first step lands on p_i/2 exactly
			maxP = max(maxP, period[i])
		}
	}
	ring := 1 << bits.Len(uint(maxP)+1) // a power of two ≥ ⌊max p_i⌋ + 2
	head := window(&s.head, ring)
	for w := range head {
		head[w] = -1
	}
	// wait steps machine i to its next position and queues it in that
	// window; one past its last, n - p_i/2, lies at n + p_i/2 ≥ n + ½.
	wait := func(i int32) {
		if pos[i] += period[i]; pos[i] < float64(n) {
			w := int(pos[i]) & (ring - 1)
			next[i], head[w] = head[w], i
		}
	}
	for i, cnt := range counts {
		if cnt > 0 {
			wait(int32(i))
		}
	}
	for j, w := 0, 0; j < n; w = (w + 1) & (ring - 1) {
		c := k // a list runs newest first: fill the window from the back
		for i := head[w]; i >= 0; i = next[i] {
			c--
			win[c] = i
		}
		head[w] = -1
		for a := c + 1; a < k; a++ {
			for b := a; b > c && (pos[win[b]] < pos[win[b-1]] || pos[win[b]] == pos[win[b-1]] && win[b] < win[b-1]); b-- {
				win[b], win[b-1] = win[b-1], win[b]
			}
		}
		for _, i := range win[c:] {
			place(int(i))
			wait(i)
		}
		j += k - c
	}
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
