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
	ConflictEdges int64 // the edges whose endpoint lists intersect, on the last try
	Retries       int   // tries that failed before the last
	Stats         mpc.Stats
}

// Coloring computes a (Δ+1)-coloring in O(1) rounds (Theorem C.7, after
// Assadi-Chen-Khanna [6]): every vertex's Θ(log n) color list is derived
// from a broadcast shared seed (so no per-vertex dissemination is needed);
// the small machines ship exactly the conflicting edges — those whose
// endpoint lists intersect, O(n polylog n) of them w.h.p. (Lemma 4.1 of [6])
// — and the large machine completes a proper list-coloring.
//
// The list-coloring completion is greedy with augmentation; if too many
// edges conflict or it fails, the whole run retries with a fresh seed
// (DESIGN.md substitution 4). Retries are counted.
func Coloring(c *mpc.Cluster, g *graph.Graph) (*ColoringResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("Coloring")
	}
	sp := c.Span("coloring")
	n := g.N
	res := &ColoringResult{}
	defer func() { res.Stats = sp.End().Model() }()
	if len(g.Edges) == 0 {
		res.Colors = make([]int, n)
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	// Δ: the degrees are aggregated, each machine takes the largest at its
	// roots, and MaxAll spreads the largest of those — the small machines
	// draw the palettes below from it.
	degRoots, err := degreeRoots(c, nil, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	delta, err := maxAll(c, degRoots, func(d prims.KV[int64]) int64 { return d.V }, 1)
	if err != nil {
		return nil, err
	}
	maxDeg := int(delta)
	res.MaxColor = maxDeg
	logn := math.Log2(float64(n) + 2)
	listLen := int(math.Ceil(2 * logn))

	maxRetries := 5
	for retry := 0; retry <= maxRetries; retry++ {
		seed, err := prims.BroadcastSeed(c)
		if err != nil {
			return nil, err
		}
		listHash := xrand.NewHash(xrand.Split(seed, 3), 6)
		lists := make([]int, n*listLen)
		for x := range lists {
			v, j := x/listLen, x%listLen
			lists[x] = int(listHash.Eval(uint64(v)*1024+uint64(j)) % uint64(maxDeg+1))
		}
		list := func(v int) []int { return lists[v*listLen : (v+1)*listLen] }
		// Ship the conflicting edges' endpoints, 2 words an edge, if they
		// fit a quarter of the large cap: the list-colouring reads no more.
		conflicts := make([][][2]int32, kk)
		c.Each(func(i int) {
			for _, e := range edges[i] {
				if listsIntersect(list(e.U), list(e.V)) {
					conflicts[i] = append(conflicts[i], [2]int32{int32(e.U), int32(e.V)})
				}
			}
		})
		cnt, err := prims.SumToLarge(c, prims.Counts(conflicts))
		if err != nil {
			return nil, err
		}
		res.ConflictEdges = cnt
		if cnt > int64(c.LargeCap()/(4*2)) {
			res.Retries++
			continue // extraordinarily unlucky lists
		}
		confEdges, err := prims.GatherToLarge(c, conflicts, 2)
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
	return nil, fmt.Errorf("core: list coloring failed after %d retries: %w", maxRetries, ErrRetriesExhausted)
}

func listsIntersect(a, b []int) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
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
// list-coloring whose existence Lemma C.8 guarantees. confEdges are the
// conflict edges' endpoint pairs. Returns nil only if
// augmentation fails for some vertex (the caller retries with fresh lists).
// Non-conflict vertices keep color -1.
func listColorConflicts(n int, confEdges [][2]int32, list func(int) []int) []int {
	adj := make([][]int, n)
	for _, e := range confEdges {
		u, v := int(e[0]), int(e[1])
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	var verts []int
	for v := range adj {
		if len(adj[v]) > 0 {
			verts = append(verts, v)
		}
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
	// visited[u] == stamp marks u as moved during the current vertex's
	// augmentation.
	visited := make([]int, n)
	stamp := 0
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
				if colors[u] != c || visited[u] == stamp {
					continue
				}
				visited[u] = stamp
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
		stamp++
		visited[v] = stamp
		if !assign(v, 0) {
			return nil // retry with fresh lists
		}
	}
	return colors
}
