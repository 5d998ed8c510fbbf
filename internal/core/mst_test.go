package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/labeling"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/trace"
	"hetmpc/internal/unionfind"
	"hetmpc/internal/xrand"
)

func newCluster(t *testing.T, n, m int, seed uint64) *mpc.Cluster {
	t.Helper()
	c, err := mpc.New(mpc.Config{N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkMSTRun(t *testing.T, g *graph.Graph, seed uint64) *MSTResult {
	t.Helper()
	c := newCluster(t, g.N, g.M(), seed)
	res, err := MST(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMST(g, res.Edges); err != nil {
		t.Fatal(err)
	}
	_, want := graph.KruskalMSF(g)
	if res.Weight != want {
		t.Fatalf("weight %d, want %d", res.Weight, want)
	}
	return res
}

func TestMSTRandomGraphs(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{64, 200},
		{128, 512},
		{200, 1200},
		{256, 400}, // sparse
	} {
		g := graph.GNMWeighted(tc.n, tc.m, uint64(tc.n))
		checkMSTRun(t, g, 7)
	}
}

// TestMSTKKTGivesUpTyped: at F = 0.5 on ConnectedGNM(256, 2048) the KKT
// sampling rate n^{1+f}/(2m) is 1, so every try samples all m edges. With
// CLarge 0.005 the large machine holds 14,929 words, m exceeds its gather
// guard of ⌊cap/10⌋ on every try, and MST gives up with an error that wraps
// ErrRetriesExhausted; with CLarge 0.007 (20,901 words) the first try fits
// and the forest is exact.
func TestMSTKKTGivesUpTyped(t *testing.T) {
	g := graph.ConnectedGNM(256, 2048, 7, true)
	run := func(cLarge float64) (*MSTResult, error) {
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 7, F: 0.5, CLarge: cLarge})
		if err != nil {
			t.Fatal(err)
		}
		return MST(c, g)
	}
	if _, err := run(0.005); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("CLarge 0.005: err = %v, want one wrapping ErrRetriesExhausted", err)
	}
	res, err := run(0.007)
	if err != nil {
		t.Fatalf("CLarge 0.007: err = %v, want the forest", err)
	}
	if res.SampleTries != 1 {
		t.Fatalf("CLarge 0.007: %d KKT tries, want 1", res.SampleTries)
	}
	if err := graph.CheckMST(g, res.Edges); err != nil {
		t.Fatal(err)
	}
}

func TestMSTConnectedDense(t *testing.T) {
	g := graph.ConnectedGNM(128, 2000, 5, true)
	res := checkMSTRun(t, g, 11)
	if len(res.Edges) != g.N-1 {
		t.Fatalf("spanning tree has %d edges", len(res.Edges))
	}
}

func TestMSTDisconnected(t *testing.T) {
	// Two components: MSF has n - 2 edges.
	a := graph.ConnectedGNM(40, 120, 1, false)
	b := graph.ConnectedGNM(40, 120, 2, false)
	edges := make([]graph.Edge, 0, a.M()+b.M())
	edges = append(edges, a.Edges...)
	for _, e := range b.Edges {
		edges = append(edges, graph.NewEdge(e.U+40, e.V+40, 1))
	}
	g := graph.New(80, edges, true)
	// unique weights
	for i := range g.Edges {
		g.Edges[i].W = int64(i) + 1
	}
	res := checkMSTRun(t, g, 3)
	if len(res.Edges) != 78 {
		t.Fatalf("MSF has %d edges, want 78", len(res.Edges))
	}
}

func TestMSTTinyAndEdgeCases(t *testing.T) {
	// Single edge.
	g := graph.New(2, []graph.Edge{graph.NewEdge(0, 1, 5)}, true)
	res := checkMSTRun(t, g, 1)
	if res.Weight != 5 {
		t.Fatalf("weight %d", res.Weight)
	}
	// Empty graph.
	empty := graph.New(8, nil, true)
	c := newCluster(t, 8, 0, 1)
	r, err := MST(c, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 0 {
		t.Fatal("phantom MST edges")
	}
	// Path (forest-like, m < n).
	p := graph.Path(50)
	for i := range p.Edges {
		p.Edges[i].W = int64(50 - i)
	}
	p.Weighted = true
	checkMSTRun(t, p, 9)
}

func TestMSTDeterministicAcrossRuns(t *testing.T) {
	g := graph.GNMWeighted(100, 500, 31)
	r1 := checkMSTRun(t, g, 77)
	r2 := checkMSTRun(t, g, 77)
	if r1.Weight != r2.Weight || len(r1.Edges) != len(r2.Edges) {
		t.Fatal("same seed produced different results")
	}
	for i := range r1.Edges {
		if r1.Edges[i] != r2.Edges[i] {
			t.Fatal("edge lists differ")
		}
	}
}

func TestMSTPhasesGrowWithDensity(t *testing.T) {
	// The headline shape: Borůvka phases ≈ log log(m/n). Denser graphs may
	// use more phases but the count must stay tiny (≤ loglog envelope).
	n := 256
	sparse := graph.GNMWeighted(n, 2*n, 1)
	dense := graph.GNMWeighted(n, 16*n, 2)
	cS := newCluster(t, n, sparse.M(), 5)
	rS, err := MST(cS, sparse)
	if err != nil {
		t.Fatal(err)
	}
	cD := newCluster(t, n, dense.M(), 5)
	rD, err := MST(cD, dense)
	if err != nil {
		t.Fatal(err)
	}
	if rS.BoruvkaPhases > 4 || rD.BoruvkaPhases > 5 {
		t.Fatalf("phases too high: sparse %d dense %d", rS.BoruvkaPhases, rD.BoruvkaPhases)
	}
	if err := graph.CheckMST(sparse, rS.Edges); err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMST(dense, rD.Edges); err != nil {
		t.Fatal(err)
	}
}

func TestMSTSuperlinearFewerPhases(t *testing.T) {
	// Theorem 3.1: with a superlinear large machine the phase budgets grow
	// as n^{f·2^i}, so fewer phases are needed.
	n, m := 256, 4096
	g := graph.GNMWeighted(n, m, 3)
	near := newCluster(t, n, m, 5)
	rNear, err := MST(near, g)
	if err != nil {
		t.Fatal(err)
	}
	super, err := mpc.New(mpc.Config{N: n, M: m, F: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rSuper, err := MST(super, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMST(g, rSuper.Edges); err != nil {
		t.Fatal(err)
	}
	if rSuper.BoruvkaPhases > rNear.BoruvkaPhases {
		t.Fatalf("superlinear used more phases (%d) than near-linear (%d)",
			rSuper.BoruvkaPhases, rNear.BoruvkaPhases)
	}
}

// TestKruskalOnCollectedIsUnsound documents DESIGN.md substitution 5: merging
// the per-vertex budget-truncated lightest edges Kruskal-style (as Algorithm
// 3 is written) can pick a non-MST edge; the budgeted active/inactive rule is
// required. This is the counterexample from the design document.
func TestKruskalOnCollectedIsUnsound(t *testing.T) {
	// S = {a=0, a'=1, a''=2}, T = {b=3, b'=4, b''=5}
	// a-a':1, a-a'':3, b-b':2, b-b'':4, f=(a,b):5, e=(a'',b''):6
	edges := []graph.Edge{
		graph.NewEdge(0, 1, 1),
		graph.NewEdge(0, 2, 3),
		graph.NewEdge(3, 4, 2),
		graph.NewEdge(3, 5, 4),
		graph.NewEdge(0, 3, 5),
		graph.NewEdge(2, 5, 6),
	}
	g := graph.New(6, edges, true)
	// Budget-2 per-vertex lightest lists exclude f=(0,3):5 (vertex 0's two
	// lightest are 1 and 3; vertex 3's are 2 and 4).
	collected := map[int64][]graph.Edge{}
	adj := g.Adj()
	for v := 0; v < g.N; v++ {
		hs := append([]graph.Half{}, adj[v]...)
		for i := 0; i < len(hs); i++ {
			for j := i + 1; j < len(hs); j++ {
				if hs[j].W < hs[i].W {
					hs[i], hs[j] = hs[j], hs[i]
				}
			}
		}
		for i := 0; i < len(hs) && i < 2; i++ {
			collected[int64(v)] = append(collected[int64(v)], graph.NewEdge(v, hs[i].To, hs[i].W))
		}
	}
	// Naive Kruskal over collected edges picks e (weight 6): total 16.
	var flat []graph.Edge
	for _, es := range collected {
		flat = append(flat, es...)
	}
	gSub := graph.New(6, flat, true)
	_, naiveW := graph.KruskalMSF(gSub)
	_, trueW := graph.KruskalMSF(g)
	if naiveW <= trueW {
		t.Fatalf("counterexample broken: naive %d true %d", naiveW, trueW)
	}
	// The full distributed algorithm must still get it right.
	checkMSTRun(t, g, 13)
}

func TestMSTRoundsAreModest(t *testing.T) {
	g := graph.GNMWeighted(256, 2048, 17)
	res := checkMSTRun(t, g, 23)
	// Phases are O(loglog) and each phase is O(1) rounds through the
	// toolbox; the entire run must stay well under any Θ(log n) behaviour
	// blow-up (log2(256) = 8 phases of Borůvka would be ~8x this).
	if res.Stats.Rounds > 400 {
		t.Fatalf("MST used %d rounds", res.Stats.Rounds)
	}
	if res.SampleTries > 4 {
		t.Fatalf("too many sampling tries: %d", res.SampleTries)
	}
}

// TestKKTSamplingBound empirically validates Lemma 3.2 (the KKT sampling
// lemma): E[#F-light edges] ≤ n/p, using the labeling machinery directly.
func TestKKTSamplingBound(t *testing.T) {
	n, m := 100, 2000
	g := graph.GNMWeighted(n, m, 21)
	rng := xrand.New(5)
	for _, p := range []float64{0.1, 0.3, 0.5} {
		totalLight := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			var sample []graph.Edge
			for _, e := range g.Edges {
				if rng.Float64() < p {
					sample = append(sample, e)
				}
			}
			f, _ := graph.KruskalMSF(graph.New(n, sample, true))
			labels := labelingBuild(n, f)
			for _, e := range g.Edges {
				if labelingFLight(e, labels) {
					totalLight++
				}
			}
		}
		avg := float64(totalLight) / trials
		bound := 3 * float64(n) / p // 3x slack over the expectation bound
		if avg > bound {
			t.Fatalf("p=%.1f: avg F-light %.1f > %.1f", p, avg, bound)
		}
	}
}

// Local helpers so the test reads like the lemma.
func labelingBuild(n int, f []graph.Edge) labelsT { return labelsT{n: n, f: f} }

type labelsT struct {
	n int
	f []graph.Edge
}

func labelingFLight(e graph.Edge, l labelsT) bool {
	// Reference implementation: BFS path max in the forest.
	adj := make([][]graph.Half, l.n)
	for _, fe := range l.f {
		adj[fe.U] = append(adj[fe.U], graph.Half{To: fe.V, W: fe.W})
		adj[fe.V] = append(adj[fe.V], graph.Half{To: fe.U, W: fe.W})
	}
	type st struct {
		v   int
		max graph.Edge
	}
	seen := make([]bool, l.n)
	seen[e.U] = true
	queue := []st{{v: e.U}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.v == e.V {
			return !cur.max.Less(e)
		}
		for _, h := range adj[cur.v] {
			if !seen[h.To] {
				seen[h.To] = true
				m := cur.max
				ne := graph.NewEdge(cur.v, h.To, h.W)
				if m.W == 0 || m.Less(ne) {
					m = ne
				}
				queue = append(queue, st{v: h.To, max: m})
			}
		}
	}
	return true // different trees
}

func TestMSTComponentsPreserved(t *testing.T) {
	// Output must span exactly the graph's components.
	g := graph.Cycles(60, 3, 4)
	for i := range g.Edges {
		g.Edges[i].W = int64(i) + 1
	}
	g.Weighted = true
	res := checkMSTRun(t, g, 2)
	dsu := unionfind.New(g.N)
	for _, e := range res.Edges {
		dsu.Union(e.U, e.V)
	}
	if dsu.Count() != 3 {
		t.Fatalf("MSF components %d, want 3", dsu.Count())
	}
}

// TestKKTDisseminatesForestLabels: the KKT step disseminates exactly the
// labels of the vertices with an edge in F. A singleton's 1-entry label is
// left out, a level-0 centroid's 1-entry label is not, and the words are the
// largest label sent. With the filter in place MST still returns Kruskal's
// weight on Table 1's shape, where the sampling step runs.
func TestKKTDisseminatesForestLabels(t *testing.T) {
	// F: the path 0-1-2, whose centroid 1 sits at level 0, the edge 3-4, and
	// the singletons 5 and 6.
	forest := []graph.Edge{graph.NewEdge(0, 1, 2), graph.NewEdge(1, 2, 3), graph.NewEdge(3, 4, 1)}
	labels := labeling.Build(7, forest)
	if len(labels[1]) != 1 || len(labels[5]) != 1 {
		t.Fatalf("labels %v: want 1-entry labels at the centroid 1 and the singleton 5", labels)
	}
	values, lwords := forestLabels(labels, forest)
	keys := make([]int64, 0, len(values))
	for _, kv := range values {
		keys = append(keys, kv.K)
	}
	if !slices.Equal(keys, []int64{0, 1, 2, 3, 4}) {
		t.Fatalf("labels of %v sent, want F's vertices 0…4, once each, by vertex", keys)
	}
	want := 0
	for _, kv := range values {
		if !reflect.DeepEqual(kv.V, labels[kv.K]) {
			t.Fatalf("vertex %d sends %v, its label is %v", kv.K, kv.V, labels[kv.K])
		}
		want = max(want, kv.V.Words())
	}
	if lwords != want {
		t.Fatalf("label words %d, want %d", lwords, want)
	}

	res := checkMSTRun(t, graph.ConnectedGNM(512, 4096, 7, true), 7)
	if res.SampleTries == 0 {
		t.Fatal("the sampling step did not run")
	}
}

// TestMSTHubFallsBackUnderTightCaps: a hub adjacent to every other vertex
// is the source of n−1 = 511 arcs, a run of 511·arcWords = 2,044 words,
// more than a small machine holds at CSmall = 0.85, LogExpSmall = 2
// (⌊0.85·√512·10²⌋ = 1,923 words at n = 512, K = 113 as at CSmall = 1).
// The contraction's grouped Arrange cannot cut its buckets at group
// boundaries, so it samples full keys in one more round (DESIGN.md §1):
// 41 rounds, and the forest pinned since before Arrange grouped its Sort
// (then at CSmall = 1, in 40 rounds), output hash pinned.
func TestMSTHubFallsBackUnderTightCaps(t *testing.T) {
	g := graph.ConnectedGNM(512, 2048, 5, true)
	seen := map[int64]bool{}
	for _, e := range g.Edges {
		seen[e.Key(g.N)] = true
	}
	rng := xrand.New(9)
	for v := 1; v < g.N; v++ {
		if e := graph.NewEdge(0, v, 1+rng.Int64N(1<<20)); !seen[e.Key(g.N)] {
			g.Edges = append(g.Edges, e)
		}
	}
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 7, CSmall: 0.85, LogExpSmall: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MST(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMST(g, res.Edges); err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, r := range tr.Rounds() {
		if strings.HasSuffix(r.Phase, "arrange/sort/full") {
			full++
		}
	}
	h := fnv.New64a()
	for _, e := range res.Edges {
		fmt.Fprintf(h, "%d %d %d;", e.U, e.V, e.W)
	}
	if full != 1 || c.Rounds() != 41 || h.Sum64() != 0xebf5db34db65b254 {
		t.Fatalf("%d fallback rounds, %d rounds, forest hash %#x: want 1, 41 and 0xebf5db34db65b254", full, c.Rounds(), h.Sum64())
	}
}

// TestMSTSortItemsChargeFourWords: MST's Sort items ship what their
// receiver reads and cannot rebuild (DESIGN.md §1). An arranged arc is
// (U, W, OU, OV), arcWords = 4: its head is rebuilt by the large machine
// (reply). A dedup item is its pair key and (W, OU, OV), 1 + pairEdgeWords
// = 4: its root rebuilds (U, V) from the key and one bit. Each route round
// — the last record under "arrange/sort" and under "aggregate/sort" —
// carries 4 words an item: 2m arcs, and one partial per pair a machine
// holds. The edges contract vertex v to v mod 61, so pairs repeat in both
// orientations, and every root must rebuild its pair's lightest edge with
// U on OU's side.
func TestMSTSortItemsChargeFourWords(t *testing.T) {
	g := graph.ConnectedGNM(512, 4096, 7, true)
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 7, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	placed, err := prims.DistributeEdges(c, g)
	if err != nil {
		t.Fatal(err)
	}
	lastWords := func(phase string) int64 {
		rounds := tr.Rounds()
		for j := len(rounds) - 1; j >= 0; j-- {
			if rounds[j].Phase == phase {
				return rounds[j].Words
			}
		}
		t.Fatalf("no round under %s", phase)
		return 0
	}
	if _, err := arrangeArcs(c, toCEdges(placed)); err != nil {
		t.Fatal(err)
	}
	if got, want := lastWords("arrange/sort"), int64(4*2*g.M()); got != want {
		t.Errorf("the arrange route round carries %d words for %d arcs, want %d", got, 2*g.M(), want)
	}

	const groups = 61
	edges := make([][]cEdge, len(placed))
	best := make([]cEdge, groups*g.N) // the lightest edge of each pair, by pairKey
	has := make([]bool, len(best))
	partials := 0
	for i, es := range placed {
		seen := map[int64]bool{}
		for _, e := range es {
			ce := cEdge{U: e.U % groups, V: e.V % groups, W: e.W, OU: e.U, OV: e.V}
			if ce.U == ce.V {
				continue
			}
			edges[i] = append(edges[i], ce)
			key := pairKey(ce.U, ce.V, g.N)
			if !seen[key] {
				seen[key], partials = true, partials+1
			}
			if !has[key] || ce.lessByWeight(best[key]) {
				best[key], has[key] = ce, true
			}
		}
	}
	out, err := dedupParallel(c, edges, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lastWords("aggregate/sort"), int64(4*partials); got != want {
		t.Errorf("the dedup route round carries %d words for %d partials, want %d", got, partials, want)
	}
	var want []cEdge
	for key, ok := range has {
		if ok {
			want = append(want, best[key])
		}
	}
	if got := slices.Concat(out...); !slices.Equal(got, want) {
		t.Errorf("dedup rebuilt %d edges that differ from the %d lightest edges of the pairs, U on OU's side", len(got), len(want))
	}
}
