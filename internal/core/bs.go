package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"hetmpc/internal/graph"
)

// bsTables is the clustering history of a (modified) Baswana-Sen run:
// Centers[i][v] is c_i(v), the center of v's level-i cluster, or -1 (⊥).
// Levels 0..k are stored; level k is all-⊥ by construction.
type bsTables struct {
	K       int
	Centers [][]int
}

// removalLevel returns the level i at which v became unclustered
// (c_{i-1}(v) != ⊥ and c_i(v) == ⊥).
func (t *bsTables) removalLevel(v int) int {
	for i := 1; i <= t.K; i++ {
		if t.Centers[i-1][v] >= 0 && t.Centers[i][v] < 0 {
			return i
		}
	}
	return -1 // never (cannot happen: level k is all-⊥)
}

// bsPhase1 runs lines 1–15 of Algorithm 2 (ModifiedBaswanaSen) locally:
// given the sampled subgraphs G_1..G_k as adjacency maps, it computes the
// cluster tables and the re-clustering spanner edges. With every G_i equal
// to the full graph this is exactly lines 1–15 of the original Baswana-Sen
// (Algorithm 1).
//
// vertices lists the (cluster) vertex ids in play; centerProb is the
// per-level center survival probability 1/r^{1/k}. sampledAdj[i] maps vertex
// → neighbors in G_{i+1} (i.e. index 0 holds G_1). Each neighbor entry
// carries the original graph edge to be added to the spanner when used.
type bsHalf struct {
	To   int
	Orig graph.Edge
}

func bsPhase1(
	vertices []int,
	sampledAdj []map[int][]bsHalf,
	k int,
	centerProb float64,
	rng *rand.Rand,
) (*bsTables, []graph.Edge) {
	t := &bsTables{K: k, Centers: make([][]int, k+1)}
	maxID := 0
	for _, v := range vertices {
		if v+1 > maxID {
			maxID = v + 1
		}
	}
	for _, a := range sampledAdj {
		for v, hs := range a {
			if v+1 > maxID {
				maxID = v + 1
			}
			for _, h := range hs {
				if h.To+1 > maxID {
					maxID = h.To + 1
				}
			}
		}
	}
	for i := range t.Centers {
		t.Centers[i] = make([]int, maxID)
		for j := range t.Centers[i] {
			t.Centers[i][j] = -1
		}
	}
	for _, v := range vertices {
		t.Centers[0][v] = v
	}
	var spanner []graph.Edge

	// Centers kept as a sorted slice so the per-center coin flips are
	// deterministic for a given rng state.
	centers := make([]int, len(vertices))
	copy(centers, vertices)
	sort.Ints(centers)
	isCenter := make(map[int]bool, len(centers))
	for _, v := range centers {
		isCenter[v] = true // C_0 = V
	}
	for i := 1; i <= k; i++ {
		// Sample C_i from C_{i-1}.
		next := make(map[int]bool, len(isCenter))
		var nextList []int
		if i < k {
			for _, c := range centers {
				if rng.Float64() < centerProb {
					next[c] = true
					nextList = append(nextList, c)
				}
			}
		}
		adj := sampledAdj[i-1]
		for _, v := range vertices {
			cv := t.Centers[i-1][v]
			if cv < 0 {
				continue
			}
			if next[cv] {
				t.Centers[i][v] = cv
				continue
			}
			// Re-cluster via a neighbor in G_i whose center survived.
			// Deterministic choice: smallest neighbor id.
			bestU := -1
			var bestEdge graph.Edge
			for _, h := range adj[v] {
				cu := t.Centers[i-1][h.To]
				if cu >= 0 && next[cu] && (bestU < 0 || h.To < bestU) {
					bestU = h.To
					bestEdge = h.Orig
				}
			}
			if bestU >= 0 {
				t.Centers[i][v] = t.Centers[i-1][bestU]
				spanner = append(spanner, bestEdge)
			}
			// else: v becomes unclustered at level i (lines 16-18 happen
			// elsewhere, on the full neighborhood).
		}
		isCenter = next
		centers = nextList
	}
	return t, spanner
}

// bsRemovalEdges runs lines 16–18 of Algorithm 2 on the full edge set: for
// every vertex v removed at level i, add one edge to each adjacent
// level-(i-1) cluster (choosing the smallest-id neighbor per cluster,
// excluding v's own former cluster).
func bsRemovalEdges(t *bsTables, vertices []int, fullAdj map[int][]bsHalf) []graph.Edge {
	type pick struct {
		u    int
		edge graph.Edge
	}
	var out []graph.Edge
	for _, v := range vertices {
		i := t.removalLevel(v)
		if i < 0 {
			continue
		}
		own := t.Centers[i-1][v]
		best := make(map[int]pick)
		for _, h := range fullAdj[v] {
			c := t.Centers[i-1][h.To]
			if c < 0 || c == own {
				continue
			}
			if p, ok := best[c]; !ok || h.To < p.u {
				best[c] = pick{u: h.To, edge: h.Orig}
			}
		}
		cs := make([]int, 0, len(best))
		for c := range best {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		for _, c := range cs {
			out = append(out, best[c].edge)
		}
	}
	return out
}

// baswanaSenLocal computes a (2k-1)-spanner of the unweighted graph given by
// `edges` over the vertex ids in `vertices`, entirely locally (used by the
// large machine for small clustering graphs, and by experiment E6 as the
// "original Baswana-Sen" reference). Every edge carries its original-graph
// edge; the returned spanner consists of original edges.
func baswanaSenLocal(vertices []int, edges []clusterEdge, k int, rng *rand.Rand) []graph.Edge {
	if k < 1 {
		k = 1
	}
	adj := make(map[int][]bsHalf, len(vertices))
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], bsHalf{To: e.V, Orig: e.Orig})
		adj[e.V] = append(adj[e.V], bsHalf{To: e.U, Orig: e.Orig})
	}
	sampled := make([]map[int][]bsHalf, k)
	for i := range sampled {
		sampled[i] = adj // original BS: N_i(v) = N(v)
	}
	prob := 1 / math.Pow(float64(max(2, len(vertices))), 1/float64(k))
	t, reclust := bsPhase1(vertices, sampled, k, prob, rng)
	removal := bsRemovalEdges(t, vertices, adj)
	return dedupeEdges(append(reclust, removal...))
}

// modifiedBaswanaSenLocal is Algorithm 2 run entirely locally, sampling each
// G_i with probability p — the object of experiment E6 (Figure 1): the
// spanner is still a (2k-1)-spanner but with O(k·r^{1+1/k}/p) expected edges
// (Lemma 4.3).
func modifiedBaswanaSenLocal(vertices []int, edges []clusterEdge, k int, p float64, rng *rand.Rand) []graph.Edge {
	adj := make(map[int][]bsHalf, len(vertices))
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], bsHalf{To: e.V, Orig: e.Orig})
		adj[e.V] = append(adj[e.V], bsHalf{To: e.U, Orig: e.Orig})
	}
	sampled := make([]map[int][]bsHalf, k)
	for i := range sampled {
		sampled[i] = make(map[int][]bsHalf)
		for _, e := range edges {
			if rng.Float64() < p {
				sampled[i][e.U] = append(sampled[i][e.U], bsHalf{To: e.V, Orig: e.Orig})
				sampled[i][e.V] = append(sampled[i][e.V], bsHalf{To: e.U, Orig: e.Orig})
			}
		}
	}
	prob := 1 / math.Pow(float64(max(2, len(vertices))), 1/float64(k))
	t, reclust := bsPhase1(vertices, sampled, k, prob, rng)
	removal := bsRemovalEdges(t, vertices, adj)
	return dedupeEdges(append(reclust, removal...))
}

// clusterEdge is an edge of a clustering graph A_i: endpoints are cluster
// ids, Orig is the attached original-graph edge EG((U,V)).
type clusterEdge struct {
	U, V int
	Orig graph.Edge
}

const clusterEdgeWords = 5

// greedySpanner computes a (2k-1)-spanner by the classical greedy algorithm
// (add an edge iff the current spanner distance between its endpoints
// exceeds 2k-1), using depth-limited BFS with timestamps. Size is
// O(r^{1+1/k}) by the girth argument. Returns the attached original edges.
func greedySpanner(vertices []int, edges []clusterEdge, k int) []graph.Edge {
	maxID := 0
	for _, v := range vertices {
		if v+1 > maxID {
			maxID = v + 1
		}
	}
	for _, e := range edges {
		if e.U+1 > maxID {
			maxID = e.U + 1
		}
		if e.V+1 > maxID {
			maxID = e.V + 1
		}
	}
	adjH := make([][]int, maxID)
	limit := 2*k - 1
	visited := make([]int, maxID) // timestamp marks
	depth := make([]int, maxID)
	stamp := 0
	var queue []int
	withinDist := func(src, dst int) bool {
		if src == dst {
			return true
		}
		stamp++
		queue = queue[:0]
		queue = append(queue, src)
		visited[src] = stamp
		depth[src] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if depth[v] >= limit {
				continue
			}
			for _, u := range adjH[v] {
				if visited[u] == stamp {
					continue
				}
				if u == dst {
					return true
				}
				visited[u] = stamp
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
		}
		return false
	}
	// Process in deterministic order.
	es := make([]clusterEdge, len(edges))
	copy(es, edges)
	slices.SortFunc(es, func(a, b clusterEdge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	var out []graph.Edge
	for _, e := range es {
		if e.U == e.V {
			continue
		}
		if !withinDist(e.U, e.V) {
			adjH[e.U] = append(adjH[e.U], e.V)
			adjH[e.V] = append(adjH[e.V], e.U)
			out = append(out, e.Orig)
		}
	}
	return out
}

// dedupeEdges canonicalizes and deduplicates a list of original edges.
func dedupeEdges(edges []graph.Edge) []graph.Edge {
	seen := make(map[[2]int]bool, len(edges))
	out := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		e = graph.NewEdge(e.U, e.V, e.W)
		key := [2]int{e.U, e.V}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	slices.SortFunc(out, graph.CompareEndpoints)
	return out
}
