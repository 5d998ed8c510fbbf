// Package graph provides the graph substrate for the heterogeneous-MPC
// reproduction: edge-list graphs, workload generators, and exact reference
// algorithms (Kruskal, BFS/Dijkstra, Stoer-Wagner, connected components) used
// to validate every distributed algorithm's output.
//
// Conventions, following the paper (§2 Preliminaries):
//   - vertices are 0..N-1; edges are undirected and stored with U < V;
//   - weights are positive integers bounded by poly(n); weight ties are
//     broken lexicographically by (W, U, V), which makes every graph behave
//     as if its weights were unique (the paper's standing assumption);
//   - unweighted graphs carry W == 1 on every edge.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected edge with U < V and positive integer weight W.
type Edge struct {
	U, V int
	W    int64
}

// NewEdge returns the canonical form of the edge {u, v} with weight w.
func NewEdge(u, v int, w int64) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v, W: w}
}

// Ends returns the edge's endpoints, U then V.
func (e Edge) Ends() (int, int) { return e.U, e.V }

// Key packs the canonical endpoint pair into a single int64, suitable for map
// keys and sketch universe indices. n is the vertex count.
func (e Edge) Key(n int) int64 { return int64(e.U)*int64(n) + int64(e.V) }

// Less orders edges by (W, U, V); this is the unique-weight tie-breaking
// order used by every MST-related computation.
func (e Edge) Less(o Edge) bool { return e.Compare(o) < 0 }

// Compare is the three-way (W, U, V) order, for the generic slices sorts.
func (e Edge) Compare(o Edge) int {
	if c := cmp.Compare(e.W, o.W); c != 0 {
		return c
	}
	if c := cmp.Compare(e.U, o.U); c != 0 {
		return c
	}
	return cmp.Compare(e.V, o.V)
}

// CompareEndpoints is the three-way (U, V) order, ignoring weights (the
// deterministic output order of unweighted edge lists).
func CompareEndpoints(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// DedupEdges canonicalizes edges, sorts them by endpoints and keeps the first
// occurrence of each endpoint pair. It reorders edges in place and returns
// the deduplicated prefix.
func DedupEdges(edges []Edge) []Edge {
	for i, e := range edges {
		edges[i] = NewEdge(e.U, e.V, e.W)
	}
	slices.SortStableFunc(edges, CompareEndpoints)
	return slices.CompactFunc(edges, func(a, b Edge) bool { return CompareEndpoints(a, b) == 0 })
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x int) int {
	if e.U == x {
		return e.V
	}
	return e.U
}

func (e Edge) String() string { return fmt.Sprintf("{%d-%d w%d}", e.U, e.V, e.W) }

// Graph is an undirected graph given as an edge list.
type Graph struct {
	N        int
	Edges    []Edge
	Weighted bool
}

// New returns a graph over n vertices with the given edges, canonicalized and
// deduplicated (keeping the lightest copy of any parallel edge).
func New(n int, edges []Edge, weighted bool) *Graph {
	seen := make(map[int64]int, len(edges))
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		e = NewEdge(e.U, e.V, e.W)
		if e.U == e.V {
			continue // drop self-loops
		}
		k := e.Key(n)
		if j, ok := seen[k]; ok {
			if e.Less(out[j]) {
				out[j] = e
			}
			continue
		}
		seen[k] = len(out)
		out = append(out, e)
	}
	return &Graph{N: n, Edges: out, Weighted: weighted}
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Half is one direction of an edge in an adjacency list.
type Half struct {
	To int
	W  int64
}

// Adj builds the adjacency-list representation.
func (g *Graph) Adj() [][]Half {
	adj := make([][]Half, g.N)
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := range adj {
		adj[v] = make([]Half, 0, deg[v])
	}
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], Half{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], Half{To: e.U, W: e.W})
	}
	return adj
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// MaxDegree returns Δ, the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return 2 * float64(len(g.Edges)) / float64(g.N)
}

// Unweighted returns a copy of g with every edge weight set to 1.
func (g *Graph) Unweighted() *Graph {
	edges := make([]Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = Edge{U: e.U, V: e.V, W: 1}
	}
	return &Graph{N: g.N, Edges: edges, Weighted: false}
}
