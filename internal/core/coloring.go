package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// ColoringResult is the output of the Appendix C.5 algorithm.
type ColoringResult struct {
	Colors        []int // proper coloring with colors in [0, Δ]
	MaxColor      int
	ConflictEdges int64
	Retries       int
	Stats         Stats
}

// Coloring computes a (Δ+1)-coloring in O(1) rounds (Theorem C.7, after
// Assadi-Chen-Khanna [6]): every vertex's Θ(log n) color list is derived
// from a broadcast shared seed (so no per-vertex dissemination is needed);
// the small machines ship exactly the conflicting edges — those whose
// endpoint lists intersect, O(n polylog n) of them w.h.p. (Lemma 4.1 of [6])
// — and the large machine completes a proper list-coloring.
//
// For Δ ≤ polylog n the whole graph has O(n polylog n) edges and is shipped
// directly (also O(1) rounds). The list-coloring completion is greedy with
// retry-on-failure (DESIGN.md substitution 4); retries are counted.
func Coloring(c *mpc.Cluster, g *graph.Graph) (*ColoringResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("Coloring")
	}
	sp := c.Span("coloring")
	n := g.N
	res := &ColoringResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	if len(g.Edges) == 0 {
		res.Colors = make([]int, n)
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	// Δ via aggregation.
	degAtLarge, err := degreesAtLarge(c, nil, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	maxDeg := 1
	for _, d := range degAtLarge {
		if int(d) > maxDeg {
			maxDeg = int(d)
		}
	}
	res.MaxColor = maxDeg
	logn := math.Log2(float64(n) + 2)
	listLen := int(math.Ceil(2 * logn))

	// Small-Δ fallback: the whole graph is Õ(n) and fits the large machine.
	if maxDeg+1 <= 2*int(logn*logn) {
		all, err := prims.GatherToLarge(c, edges, prims.EdgeWords)
		if err != nil {
			return nil, err
		}
		res.Colors = greedyColorComplete(n, all, maxDeg, nil)
		if res.Colors == nil {
			return nil, fmt.Errorf("core: greedy (Δ+1)-coloring failed on the full graph")
		}
		return res, nil
	}

	maxRetries := 5
	for retry := 0; retry <= maxRetries; retry++ {
		seed, err := prims.BroadcastSeed(c)
		if err != nil {
			return nil, err
		}
		listHash := xrand.NewHash(xrand.Split(seed, 3), 6)
		list := func(v int) []int {
			out := make([]int, listLen)
			for j := 0; j < listLen; j++ {
				out[j] = int(listHash.Eval(uint64(v)*1024+uint64(j)) % uint64(maxDeg+1))
			}
			return out
		}
		// Ship the conflicting edges.
		conflicts := make([][]graph.Edge, kk)
		c.Each(func(i int) {
			for _, e := range edges[i] {
				if listsIntersect(list(e.U), list(e.V)) {
					conflicts[i] = append(conflicts[i], e)
				}
			}
		})
		cnt, err := prims.SumToLarge(c, prims.Counts(conflicts))
		if err != nil {
			return nil, err
		}
		res.ConflictEdges = cnt
		if cnt > int64(c.LargeCap()/(4*prims.EdgeWords)) {
			res.Retries++
			continue // extraordinarily unlucky lists
		}
		confEdges, err := prims.GatherToLarge(c, conflicts, prims.EdgeWords)
		if err != nil {
			return nil, err
		}
		// Large machine: greedy list-coloring of the conflict graph; all
		// other vertices take their first list color (their lists are
		// disjoint from every neighbor's list).
		colors := listColorConflicts(n, confEdges, list)
		if colors == nil {
			res.Retries++
			continue
		}
		for v := 0; v < n; v++ {
			if colors[v] < 0 {
				colors[v] = list(v)[0]
			}
		}
		res.Colors = colors
		return res, nil
	}
	return nil, fmt.Errorf("core: list coloring failed after %d retries", maxRetries)
}

func listsIntersect(a, b []int) bool {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

// listColorConflicts colors the conflict-graph vertices from their lists
// (descending conflict degree), using Kuhn-style augmentation when a vertex
// is stuck: it tries to steal a list color from a neighbor that can itself
// move to another color, recursively. On clique-like conflict graphs this is
// exactly bipartite-matching augmentation, which finds the proper
// list-coloring whose existence Lemma C.8 guarantees. Returns nil only if
// augmentation fails for some vertex (the caller retries with fresh lists).
// Non-conflict vertices keep color -1.
func listColorConflicts(n int, confEdges []graph.Edge, list func(int) []int) []int {
	adj := make(map[int][]int)
	for _, e := range confEdges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	verts := make([]int, 0, len(adj))
	for v := range adj {
		verts = append(verts, v)
	}
	slices.SortFunc(verts, func(a, b int) int {
		if c := cmp.Compare(len(adj[b]), len(adj[a])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	free := func(v, c int) bool {
		for _, u := range adj[v] {
			if colors[u] == c {
				return false
			}
		}
		return true
	}
	visited := make(map[int]bool)
	var assign func(v int, depth int) bool
	assign = func(v int, depth int) bool {
		if depth > 64 {
			return false
		}
		for _, c := range list(v) {
			if free(v, c) {
				colors[v] = c
				return true
			}
		}
		// Augment: steal a color from a movable neighbor.
		for _, c := range list(v) {
			for _, u := range adj[v] {
				if colors[u] != c || visited[u] {
					continue
				}
				visited[u] = true
				colors[u] = -1
				colors[v] = c
				if assign(u, depth+1) {
					return true
				}
				colors[v] = -1
				colors[u] = c
			}
		}
		return false
	}
	for _, v := range verts {
		clear(visited)
		visited[v] = true
		if !assign(v, 0) {
			return nil // retry with fresh lists
		}
	}
	return colors
}

// greedyColorComplete colors the whole (shipped) graph greedily with at most
// maxColor+1 colors; pre is an optional pre-coloring. Returns nil only if
// some vertex exhausts the palette, which cannot happen for a (Δ+1) palette.
func greedyColorComplete(n int, edges []graph.Edge, maxColor int, pre []int) []int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	if pre != nil {
		copy(colors, pre)
	}
	for v := 0; v < n; v++ {
		if colors[v] >= 0 {
			continue
		}
		used := make(map[int]bool, len(adj[v]))
		for _, u := range adj[v] {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		for col := 0; col <= maxColor; col++ {
			if !used[col] {
				colors[v] = col
				break
			}
		}
		if colors[v] < 0 {
			return nil
		}
	}
	return colors
}
