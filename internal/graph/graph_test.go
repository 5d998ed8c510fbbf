package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2, 7)
	if e.U != 2 || e.V != 5 || e.W != 7 {
		t.Fatalf("NewEdge(5,2,7) = %v", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Other broken")
	}
}

func TestEdgeLessTieBreak(t *testing.T) {
	a := NewEdge(0, 1, 5)
	b := NewEdge(0, 2, 5)
	c := NewEdge(1, 2, 4)
	if !c.Less(a) || !a.Less(b) || b.Less(a) {
		t.Fatal("Less ordering wrong")
	}
	if a.Less(a) {
		t.Fatal("Less must be irreflexive")
	}
}

func TestNewDedupesAndDropsSelfLoops(t *testing.T) {
	g := New(4, []Edge{
		{U: 0, V: 1, W: 5},
		{U: 1, V: 0, W: 3}, // parallel, lighter: should win
		{U: 2, V: 2, W: 1}, // self loop: dropped
		{U: 2, V: 3, W: 9},
	}, true)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Edges[0].W != 3 {
		t.Fatalf("parallel dedupe kept weight %d, want 3", g.Edges[0].W)
	}
}

func TestDedupEdgesMatchesMapOracle(t *testing.T) {
	// The oracle: canonicalize, keep the first weight seen per endpoint
	// pair, then list the pairs in (U, V) order.
	oracle := func(edges []Edge) []Edge {
		first := map[[2]int]int64{}
		var pairs [][2]int
		for _, e := range edges {
			e = NewEdge(e.U, e.V, e.W)
			if _, ok := first[[2]int{e.U, e.V}]; !ok {
				first[[2]int{e.U, e.V}] = e.W
				pairs = append(pairs, [2]int{e.U, e.V})
			}
		}
		slices.SortFunc(pairs, func(a, b [2]int) int {
			return CompareEndpoints(Edge{U: a[0], V: a[1]}, Edge{U: b[0], V: b[1]})
		})
		out := make([]Edge, len(pairs))
		for i, p := range pairs {
			out[i] = Edge{U: p[0], V: p[1], W: first[p]}
		}
		return out
	}
	cases := map[string][]Edge{
		"empty": nil,
		"non-canonical": {
			{U: 3, V: 1, W: 2}, {U: 2, V: 0, W: 1}, {U: 1, V: 3, W: 5}, {U: 4, V: 4, W: 1},
		},
		"repeated pairs, first weight wins": {
			{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: 3}, {U: 0, V: 1, W: 1}, {U: 2, V: 5, W: 7}, {U: 5, V: 2, W: 4},
		},
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var random []Edge
	for range 500 {
		random = append(random, Edge{U: rng.IntN(20), V: rng.IntN(20), W: int64(rng.IntN(100)) + 1})
	}
	cases["random"] = random
	for name, edges := range cases {
		want := oracle(edges)
		got := DedupEdges(slices.Clone(edges))
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Errorf("%s: DedupEdges = %v, want %v", name, got, want)
		}
	}
}

func TestDegreesAndAdj(t *testing.T) {
	g := Star(5)
	deg := g.Degrees()
	if deg[0] != 4 {
		t.Fatalf("hub degree %d, want 4", deg[0])
	}
	for v := 1; v < 5; v++ {
		if deg[v] != 1 {
			t.Fatalf("leaf %d degree %d, want 1", v, deg[v])
		}
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree %d", g.MaxDegree())
	}
	adj := g.Adj()
	if len(adj[0]) != 4 || len(adj[3]) != 1 {
		t.Fatal("Adj sizes wrong")
	}
}

func TestGNMProperties(t *testing.T) {
	g := GNM(100, 300, 7)
	if g.N != 100 || g.M() != 300 {
		t.Fatalf("GNM dims %d %d", g.N, g.M())
	}
	seen := map[int64]bool{}
	for _, e := range g.Edges {
		if e.U >= e.V {
			t.Fatalf("non-canonical edge %v", e)
		}
		k := e.Key(g.N)
		if seen[k] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[k] = true
	}
	// Determinism.
	g2 := GNM(100, 300, 7)
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("GNM not deterministic")
		}
	}
	// Dense path (selection sampling).
	d := GNM(20, 150, 3)
	if d.M() != 150 {
		t.Fatalf("dense GNM m=%d", d.M())
	}
	// Clamping.
	c := GNM(5, 100, 3)
	if c.M() != 10 {
		t.Fatalf("clamped GNM m=%d, want 10", c.M())
	}
}

func TestGNMWeightedUniqueWeights(t *testing.T) {
	g := GNMWeighted(50, 200, 11)
	seen := map[int64]bool{}
	for _, e := range g.Edges {
		if e.W < 1 || e.W > 200 {
			t.Fatalf("weight %d out of range", e.W)
		}
		if seen[e.W] {
			t.Fatalf("duplicate weight %d", e.W)
		}
		seen[e.W] = true
	}
}

func TestConnectedGNMIsConnected(t *testing.T) {
	for _, m := range []int{99, 150, 400} {
		g := ConnectedGNM(100, m, 13, true)
		if _, cc := Components(g); cc != 1 {
			t.Fatalf("ConnectedGNM(m=%d) has %d components", m, cc)
		}
		if g.M() < 99 {
			t.Fatalf("too few edges: %d", g.M())
		}
	}
}

func TestCyclesComponents(t *testing.T) {
	for parts := 1; parts <= 3; parts++ {
		g := Cycles(99, parts, 5)
		if g.M() != 99 {
			t.Fatalf("cycles should have n edges, got %d", g.M())
		}
		if _, cc := Components(g); cc != parts {
			t.Fatalf("Cycles(99,%d) has %d components", parts, cc)
		}
		for v, d := range g.Degrees() {
			if d != 2 {
				t.Fatalf("vertex %d has degree %d in cycle graph", v, d)
			}
		}
	}
}

func TestGridPathComplete(t *testing.T) {
	g := Grid(4, 5)
	if g.N != 20 || g.M() != 4*4+3*5 {
		t.Fatalf("grid dims n=%d m=%d", g.N, g.M())
	}
	if _, cc := Components(g); cc != 1 {
		t.Fatal("grid disconnected")
	}
	p := Path(10)
	if p.M() != 9 {
		t.Fatal("path edge count")
	}
	k := Complete(8, true, 3)
	if k.M() != 28 {
		t.Fatal("complete edge count")
	}
	if k.MaxDegree() != 7 {
		t.Fatal("complete degree")
	}
}

func TestPlantedHubs(t *testing.T) {
	g := PlantedHubs(200, 4, 3, 150, 17)
	deg := g.Degrees()
	maxHub := 0
	for h := 197; h < 200; h++ {
		if deg[h] > maxHub {
			maxHub = deg[h]
		}
	}
	if maxHub < 100 {
		t.Fatalf("hub degree only %d", maxHub)
	}
	if g.AvgDegree() > 12 {
		t.Fatalf("average degree blew up: %f", g.AvgDegree())
	}
}

// TestGenerateEveryName: every name in Generators builds a simple graph on
// exactly n vertices, square or not (grid a connected one), and weighted
// gives weights exactly where the generator assigns any — unique ones,
// except cut's, which stay in 1..16 by design.
func TestGenerateEveryName(t *testing.T) {
	const m = 256
	weighs := map[string]bool{"gnm": true, "connected": true, "cut": true, "complete": true}
	for _, name := range Generators {
		for _, nw := range []struct {
			n        int
			weighted bool
		}{{64, false}, {64, true}, {50, false}} { // 50: grid's last row is partial
			n, weighted := nw.n, nw.weighted
			g, err := Generate(name, n, m, 5, weighted)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g.N != n || g.M() == 0 {
				t.Errorf("%s: n=%d m=%d, want n=%d and some edges", name, g.N, g.M(), n)
			}
			if _, comps := Components(g); name == "grid" && comps != 1 {
				t.Errorf("grid n=%d: %d components, want 1", n, comps)
			}
			if want := weighted && weighs[name]; g.Weighted != want {
				t.Errorf("%s weighted=%v: Graph.Weighted=%v, want %v", name, weighted, g.Weighted, want)
			}
			seen := map[int64]bool{}
			weights := map[int64]bool{}
			for _, e := range g.Edges {
				if e.U >= e.V || e.V >= n || seen[e.Key(n)] {
					t.Fatalf("%s: edge %v is a self-loop, out of range or repeated", name, e)
				}
				seen[e.Key(n)] = true
				switch {
				case !g.Weighted:
					if e.W != 1 {
						t.Fatalf("%s: unweighted edge %v", name, e)
					}
				case name == "cut":
					if e.W < 1 || e.W > 16 {
						t.Fatalf("cut: weight %d outside 1..16", e.W)
					}
				case weights[e.W]:
					t.Fatalf("%s: weight %d repeats", name, e.W)
				}
				weights[e.W] = true
			}
		}
	}
	if _, err := Generate("nope", 64, m, 5, false); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown generator: err = %v, want one naming \"nope\"", err)
	}
}

func TestKruskalAgainstPrimLikeBruteForce(t *testing.T) {
	// On small graphs, compare Kruskal weight to an O(2^m)-free alternative:
	// Prim's algorithm implemented independently.
	for seed := uint64(0); seed < 10; seed++ {
		g := ConnectedGNM(12, 30, seed, true)
		_, kw := KruskalMSF(g)
		pw := primWeight(g)
		if kw != pw {
			t.Fatalf("seed %d: kruskal %d != prim %d", seed, kw, pw)
		}
	}
}

func primWeight(g *Graph) int64 {
	adj := g.Adj()
	inTree := make([]bool, g.N)
	best := make([]int64, g.N)
	for i := range best {
		best[i] = math.MaxInt64
	}
	best[0] = 0
	var total int64
	for it := 0; it < g.N; it++ {
		v, bw := -1, int64(math.MaxInt64)
		for u := 0; u < g.N; u++ {
			if !inTree[u] && best[u] < bw {
				v, bw = u, best[u]
			}
		}
		if v == -1 {
			break
		}
		inTree[v] = true
		total += bw
		for _, h := range adj[v] {
			if !inTree[h.To] && h.W < best[h.To] {
				best[h.To] = h.W
			}
		}
	}
	return total
}

func TestKruskalOnForest(t *testing.T) {
	// Disconnected graph: MSF spans each component.
	g := New(6, []Edge{
		NewEdge(0, 1, 3), NewEdge(1, 2, 1), NewEdge(0, 2, 2),
		NewEdge(3, 4, 5), NewEdge(4, 5, 4), NewEdge(3, 5, 6),
	}, true)
	msf, w := KruskalMSF(g)
	if len(msf) != 4 {
		t.Fatalf("MSF size %d, want 4", len(msf))
	}
	if w != 1+2+5+4 {
		t.Fatalf("MSF weight %d", w)
	}
	if err := CheckMST(g, msf); err != nil {
		t.Fatal(err)
	}
}

func TestBFSAndDijkstraAgree(t *testing.T) {
	g := ConnectedGNM(60, 150, 21, false)
	adj := g.Adj()
	bfs := BFSDist(adj, 0)
	dij := DijkstraDist(adj, 0) // unit weights: must match BFS
	for v := range bfs {
		if int64(bfs[v]) != dij[v] {
			t.Fatalf("vertex %d: bfs %d dijkstra %d", v, bfs[v], dij[v])
		}
	}
}

func TestStoerWagnerKnownCuts(t *testing.T) {
	// A path has min cut 1.
	if got := StoerWagner(Path(6).Unweighted()); got != 1 {
		t.Fatalf("path min cut %d, want 1", got)
	}
	// A cycle has min cut 2.
	if got := StoerWagner(Cycles(8, 1, 1)); got != 2 {
		t.Fatalf("cycle min cut %d, want 2", got)
	}
	// Complete graph K_n has min cut n-1.
	if got := StoerWagner(Complete(6, false, 1)); got != 5 {
		t.Fatalf("K6 min cut %d, want 5", got)
	}
	// Planted cut is found.
	g := PlantedCut(40, 120, 3, 9, false)
	if got := StoerWagner(g); got != 3 {
		t.Fatalf("planted min cut %d, want 3", got)
	}
	// Disconnected graph has cut 0.
	two := Cycles(20, 2, 4)
	if got := StoerWagner(two); got != 0 {
		t.Fatalf("disconnected min cut %d, want 0", got)
	}
}

func TestStoerWagnerAgainstBruteForce(t *testing.T) {
	// Exhaustive over all 2^(n-1)-1 cuts on tiny weighted graphs.
	for seed := uint64(1); seed <= 6; seed++ {
		g := ConnectedGNM(9, 20, seed, true)
		want := bruteMinCut(g)
		if got := StoerWagner(g); got != want {
			t.Fatalf("seed %d: stoer-wagner %d != brute %d", seed, got, want)
		}
	}
}

func bruteMinCut(g *Graph) int64 {
	best := int64(math.MaxInt64)
	for mask := 1; mask < 1<<(g.N-1); mask++ {
		// vertex g.N-1 always on side 0 to halve the space
		var cut int64
		for _, e := range g.Edges {
			su := e.U != g.N-1 && mask&(1<<e.U) != 0
			sv := e.V != g.N-1 && mask&(1<<e.V) != 0
			if su != sv {
				cut += e.W
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestGreedyHelpers(t *testing.T) {
	g := Cycles(10, 1, 3)
	match, _ := GreedyMatching(g.N, g.Edges, nil)
	if err := CheckMatching(g, match, false); err != nil {
		t.Fatal(err)
	}
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	mis, _ := GreedyMIS(g.Adj(), order, nil)
	if err := CheckMIS(g, mis); err != nil {
		t.Fatal(err)
	}
}

func TestCheckersRejectBadSolutions(t *testing.T) {
	g := ConnectedGNM(20, 40, 3, true)
	msf, _ := KruskalMSF(g)
	// Corrupt the forest: swap one edge for a non-tree edge.
	inTree := map[int64]bool{}
	for _, e := range msf {
		inTree[e.Key(g.N)] = true
	}
	var nonTree Edge
	for _, e := range g.Edges {
		if !inTree[e.Key(g.N)] {
			nonTree = e
			break
		}
	}
	bad := append(append([]Edge{}, msf[1:]...), nonTree)
	if err := CheckMST(g, bad); err == nil {
		t.Fatal("CheckMST accepted a corrupted forest")
	}
	// Matching with shared endpoint.
	if err := CheckMatching(g, []Edge{g.Edges[0], g.Edges[0]}, false); err == nil {
		t.Fatal("CheckMatching accepted duplicate edge")
	}
	// MIS with an edge inside.
	e := g.Edges[0]
	if err := CheckMIS(g, []int{e.U, e.V}); err == nil {
		t.Fatal("CheckMIS accepted adjacent vertices")
	}
	// Coloring with a monochromatic edge.
	colors := make([]int, g.N)
	if err := CheckColoring(g, colors, 5); err == nil {
		t.Fatal("CheckColoring accepted constant coloring")
	}
}

func TestCheckSpanner(t *testing.T) {
	g := ConnectedGNM(40, 200, 5, false)
	// The graph is a 1-spanner of itself.
	if err := CheckSpanner(g, g, 1, 4, 9); err != nil {
		t.Fatal(err)
	}
	// A spanning tree is an (n-1)-spanner.
	msf, _ := KruskalMSF(g)
	h := New(g.N, msf, false)
	if err := CheckSpanner(g, h, g.N, 4, 9); err != nil {
		t.Fatal(err)
	}
	// But usually not a 2-spanner of a dense graph.
	if err := CheckSpanner(g, h, 1, 8, 9); err == nil {
		t.Fatal("tree should not be a 1-spanner")
	}
}

func TestComponentsQuickProperty(t *testing.T) {
	// Adding an edge never increases the component count.
	prop := func(seed uint64) bool {
		g := GNM(30, 25, seed%1000)
		_, cc1 := Components(g)
		extra := NewEdge(int(seed%30), int((seed/30)%30), 1)
		if extra.U == extra.V {
			return true
		}
		g2 := New(30, append(append([]Edge{}, g.Edges...), extra), false)
		_, cc2 := Components(g2)
		return cc2 <= cc1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
