package graph

import (
	"container/heap"
	"math"
	"slices"

	"hetmpc/internal/unionfind"
)

// KruskalMSF returns the minimum spanning forest of g under the (W, U, V)
// tie-breaking order, together with its total weight. This is the ground
// truth every distributed MST run is validated against.
func KruskalMSF(g *Graph) ([]Edge, int64) {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	slices.SortFunc(edges, Edge.Compare)
	dsu := unionfind.New(g.N)
	out := make([]Edge, 0, g.N-1)
	var total int64
	for _, e := range edges {
		if dsu.Union(e.U, e.V) {
			out = append(out, e)
			total += e.W
		}
	}
	return out, total
}

// Components returns per-vertex component labels (the smallest vertex id in
// each component) and the number of components.
func Components(g *Graph) ([]int, int) {
	return ComponentsOf(g.N, g.Edges)
}

// ComponentsOf is Components over an explicit edge list.
func ComponentsOf(n int, edges []Edge) ([]int, int) {
	dsu := unionfind.New(n)
	for _, e := range edges {
		dsu.Union(e.U, e.V)
	}
	// Relabel each component by its smallest member for stable output.
	min := make([]int, n)
	for i := range min {
		min[i] = n
	}
	for v := 0; v < n; v++ {
		r := dsu.Find(v)
		if v < min[r] {
			min[r] = v
		}
	}
	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = min[dsu.Find(v)]
	}
	return labels, dsu.Count()
}

// BFSDist returns unweighted distances from src (math.MaxInt for
// unreachable vertices).
func BFSDist(adj [][]Half, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range adj[v] {
			if dist[h.To] == math.MaxInt {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// DijkstraDist returns weighted distances from src (math.MaxInt64 for
// unreachable vertices).
func DijkstraDist(adj [][]Half, src int) []int64 {
	dist := make([]int64, len(adj))
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, h := range adj[it.v] {
			if nd := it.d + h.W; nd < dist[h.To] {
				dist[h.To] = nd
				heap.Push(pq, distItem{v: h.To, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// StoerWagner computes the exact global minimum cut weight of a connected
// graph (parallel edges are merged by weight addition). It returns
// math.MaxInt64 for graphs with fewer than 2 vertices and panics on nothing:
// disconnected inputs yield 0, which is the correct min cut.
func StoerWagner(g *Graph) int64 {
	n := g.N
	if n < 2 {
		return math.MaxInt64
	}
	// Dense adjacency of accumulated weights.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.Edges {
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := int64(math.MaxInt64)
	// Repeatedly run minimum-cut-phase, merging the last two vertices.
	for len(active) > 1 {
		// Maximum adjacency search from active[0].
		inA := make(map[int]bool, len(active))
		weights := make(map[int]int64, len(active))
		order := make([]int, 0, len(active))
		for len(order) < len(active) {
			// pick the most tightly connected remaining vertex
			sel, selW := -1, int64(-1)
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		s := order[len(order)-2]
		cutOfPhase := weights[t]
		if cutOfPhase < best {
			best = cutOfPhase
		}
		// Merge t into s.
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		na := active[:0]
		for _, v := range active {
			if v != t {
				na = append(na, v)
			}
		}
		active = na
	}
	return best
}

// GreedyMatching scans the edges in the given order and adds each edge whose
// endpoints are both unmatched. matched may carry pre-matched vertices (it is
// mutated); pass nil for a fresh matching. Returns the added edges.
func GreedyMatching(n int, edges []Edge, matched []bool) ([]Edge, []bool) {
	if matched == nil {
		matched = make([]bool, n)
	}
	out := make([]Edge, 0, len(edges)/2)
	for _, e := range edges {
		if !matched[e.U] && !matched[e.V] {
			matched[e.U] = true
			matched[e.V] = true
			out = append(out, e)
		}
	}
	return out, matched
}

// GreedyMIS processes the vertices in the given order, adding each vertex
// that has no earlier neighbor in the set. dead may carry vertices already
// dominated (mutated); pass nil for a fresh run.
func GreedyMIS(adj [][]Half, order []int, dead []bool) ([]int, []bool) {
	if dead == nil {
		dead = make([]bool, len(adj))
	}
	out := make([]int, 0, len(order))
	for _, v := range order {
		if dead[v] {
			continue
		}
		out = append(out, v)
		dead[v] = true
		for _, h := range adj[v] {
			dead[h.To] = true
		}
	}
	return out, dead
}
