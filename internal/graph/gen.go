package graph

import (
	"fmt"
	"slices"

	"hetmpc/internal/xrand"
)

// Generators names the workloads Generate builds, in the order the -gen help
// of cmd/hetrun and cmd/graphgen lists them.
var Generators = []string{"gnm", "connected", "cycles", "cycles2", "hubs", "cut", "grid", "star", "complete"}

// Generate builds the named workload on n vertices (grid: the first n cells,
// row by row, of the ⌈√n⌉-wide grid). m is the edge count gnm and connected aim for and
// cut splits between its halves; weighted asks gnm, connected, cut and
// complete for weights — unique ones, except cut's, which stay in 1..16 so
// the planted cut stays minimal. The other generators are unweighted.
func Generate(name string, n, m int, seed uint64, weighted bool) (*Graph, error) {
	switch name {
	case "gnm":
		if weighted {
			return GNMWeighted(n, m, seed), nil
		}
		return GNM(n, m, seed), nil
	case "connected":
		return ConnectedGNM(n, m, seed, weighted), nil
	case "cycles":
		return Cycles(n, 1, seed), nil
	case "cycles2":
		return Cycles(n, 2, seed), nil
	case "hubs":
		return PlantedHubs(n, 4, 4, n/2, seed), nil
	case "cut":
		return PlantedCut(n, m/2, 3, seed, weighted), nil
	case "grid":
		w := 1
		for w*w < n {
			w++
		}
		g := Grid((n+w-1)/w, w)
		g.Edges = slices.DeleteFunc(g.Edges, func(e Edge) bool { return e.V >= n })
		g.N = n
		return g, nil
	case "star":
		return Star(n), nil
	case "complete":
		return Complete(n, weighted, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// GNM returns a uniformly random simple graph with n vertices and (up to) m
// distinct edges, unweighted. If m exceeds the number of possible edges it is
// clamped.
func GNM(n, m int, seed uint64) *Graph {
	g := gnmEdges(n, m, seed)
	return &Graph{N: n, Edges: g, Weighted: false}
}

// GNMWeighted is GNM with distinct weights: a random permutation of 1..m is
// assigned to the edges, so all weights are unique (the paper's assumption).
func GNMWeighted(n, m int, seed uint64) *Graph {
	edges := gnmEdges(n, m, seed)
	assignUniqueWeights(edges, xrand.Split(seed, 1))
	return &Graph{N: n, Edges: edges, Weighted: true}
}

// ConnectedGNM returns a connected graph: a random recursive tree on n
// vertices plus random extra edges up to m total, with unique weights if
// weighted is true.
func ConnectedGNM(n, m int, seed uint64, weighted bool) *Graph {
	rng := xrand.New(seed)
	seen := make(map[int64]bool, m)
	edges := make([]Edge, 0, m)
	add := func(u, v int) bool {
		e := NewEdge(u, v, 1)
		k := e.Key(n)
		if u == v || seen[k] {
			return false
		}
		seen[k] = true
		edges = append(edges, e)
		return true
	}
	for v := 1; v < n; v++ {
		add(v, rng.IntN(v))
	}
	maxEdges := maxSimpleEdges(n)
	if m > maxEdges {
		m = maxEdges
	}
	for guard := 0; len(edges) < m && guard < 40*m+1000; guard++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	if weighted {
		assignUniqueWeights(edges, xrand.Split(seed, 1))
	}
	return &Graph{N: n, Edges: edges, Weighted: weighted}
}

// Cycles returns a graph that is the disjoint union of parts cycles covering
// all n vertices (the "2-vs-1 cycle" instances from the paper's introduction
// use parts = 1 or 2). Vertex identities are shuffled so the cycle structure
// is not visible in the vertex numbering.
func Cycles(n, parts int, seed uint64) *Graph {
	if parts < 1 {
		parts = 1
	}
	if parts > n/3 {
		parts = n / 3
	}
	if parts < 1 {
		parts = 1
	}
	rng := xrand.New(seed)
	perm := rng.Perm(n)
	edges := make([]Edge, 0, n)
	// Split [0,n) into `parts` consecutive chunks, each a cycle.
	chunk := n / parts
	start := 0
	for p := 0; p < parts; p++ {
		end := start + chunk
		if p == parts-1 {
			end = n
		}
		for i := start; i < end; i++ {
			j := i + 1
			if j == end {
				j = start
			}
			edges = append(edges, NewEdge(perm[i], perm[j], 1))
		}
		start = end
	}
	return New(n, edges, false)
}

// Star returns a star with hub 0 and n-1 leaves.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, NewEdge(0, v, 1))
	}
	return &Graph{N: n, Edges: edges, Weighted: false}
}

// Path returns a path 0-1-...-n-1 with unit weights.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, NewEdge(v, v+1, 1))
	}
	return &Graph{N: n, Edges: edges, Weighted: false}
}

// Grid returns an r x c grid graph (n = r*c vertices).
func Grid(r, c int) *Graph {
	idx := func(i, j int) int { return i*c + j }
	edges := make([]Edge, 0, 2*r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				edges = append(edges, NewEdge(idx(i, j), idx(i, j+1), 1))
			}
			if i+1 < r {
				edges = append(edges, NewEdge(idx(i, j), idx(i+1, j), 1))
			}
		}
	}
	return &Graph{N: r * c, Edges: edges, Weighted: false}
}

// Complete returns the complete graph K_n, optionally with unique weights.
func Complete(n int, weighted bool, seed uint64) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: u, V: v, W: 1})
		}
	}
	if weighted {
		assignUniqueWeights(edges, seed)
	}
	return &Graph{N: n, Edges: edges, Weighted: weighted}
}

// PlantedHubs returns a graph with average degree about d on the first
// n-hubs vertices (a sparse GNM core) plus `hubs` vertices of degree about
// hubDeg each, connected to uniformly random core vertices. It is the
// workload for experiment E7: average degree stays ~d while Δ is driven by
// hubDeg.
func PlantedHubs(n, d, hubs, hubDeg int, seed uint64) *Graph {
	if hubs >= n {
		hubs = n / 4
	}
	core := n - hubs
	rng := xrand.New(xrand.Split(seed, 2))
	edges := gnmEdges(core, core*d/2, seed)
	seen := make(map[int64]bool, len(edges)+hubs*hubDeg)
	for _, e := range edges {
		seen[e.Key(n)] = true
	}
	for h := 0; h < hubs; h++ {
		hub := core + h
		for t := 0; t < hubDeg; t++ {
			v := rng.IntN(core)
			e := NewEdge(hub, v, 1)
			k := e.Key(n)
			if seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, e)
		}
	}
	return &Graph{N: n, Edges: edges, Weighted: false}
}

// PlantedCut returns a graph made of two dense GNM halves joined by exactly
// `cut` random cross edges: its minimum cut is (w.h.p.) the planted one. Used
// by the min-cut experiments.
func PlantedCut(n, mPerSide, cut int, seed uint64, weighted bool) *Graph {
	half := n / 2
	a := ConnectedGNM(half, mPerSide, xrand.Split(seed, 1), false)
	b := ConnectedGNM(n-half, mPerSide, xrand.Split(seed, 2), false)
	edges := make([]Edge, 0, len(a.Edges)+len(b.Edges)+cut)
	edges = append(edges, a.Edges...)
	for _, e := range b.Edges {
		edges = append(edges, NewEdge(e.U+half, e.V+half, 1))
	}
	rng := xrand.New(xrand.Split(seed, 3))
	seen := make(map[int64]bool, cut)
	for len(seen) < cut {
		u, v := rng.IntN(half), half+rng.IntN(n-half)
		e := NewEdge(u, v, 1)
		k := e.Key(n)
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, e)
	}
	g := New(n, edges, weighted)
	if weighted {
		assignUniqueWeights(g.Edges, xrand.Split(seed, 4))
		// Keep weights small on the cut edges so the planted cut stays minimal.
		for i, e := range g.Edges {
			g.Edges[i].W = e.W%16 + 1
		}
	}
	return g
}

// --- helpers ---

func maxSimpleEdges(n int) int { return n * (n - 1) / 2 }

// gnmEdges draws m distinct edges uniformly. For dense requests it
// enumerates all pairs and samples without replacement; for sparse requests
// it rejection-samples.
func gnmEdges(n, m int, seed uint64) []Edge {
	maxE := maxSimpleEdges(n)
	if m > maxE {
		m = maxE
	}
	rng := xrand.New(seed)
	if m*3 >= maxE {
		all := make([]Edge, 0, maxE)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				all = append(all, Edge{U: u, V: v, W: 1})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:m]
	}
	seen := make(map[int64]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		e := NewEdge(u, v, 1)
		k := e.Key(n)
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, e)
	}
	return edges
}

// assignUniqueWeights gives the edges a random permutation of 1..len(edges)
// as weights, guaranteeing uniqueness.
func assignUniqueWeights(edges []Edge, seed uint64) {
	rng := xrand.New(seed)
	perm := rng.Perm(len(edges))
	for i := range edges {
		edges[i].W = int64(perm[i]) + 1
	}
}
