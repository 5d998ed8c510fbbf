package sublinear

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/trace"
)

func newBaselineCluster(t *testing.T, n, m int, seed uint64) *mpc.Cluster {
	t.Helper()
	c, err := mpc.New(mpc.Config{N: n, M: m, NoLarge: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBaselineConnectivity(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.GNM(96, 300, 3),
		graph.Cycles(90, 2, 7),
		graph.Grid(8, 10),
		graph.Path(64),
	} {
		c := newBaselineCluster(t, g.N, g.M(), 11)
		res, err := Connectivity(c, g)
		if err != nil {
			t.Fatal(err)
		}
		wantLabels, wantCC := graph.Components(g)
		if res.Components != wantCC {
			t.Fatalf("components %d want %d", res.Components, wantCC)
		}
		for v := range wantLabels {
			if res.Labels[v] != wantLabels[v] {
				t.Fatalf("label mismatch at %d", v)
			}
		}
	}
}

func TestBaselineConnectivityPhasesGrowWithN(t *testing.T) {
	// The baseline's point: phases ~ Θ(log n), unlike the heterogeneous O(1).
	phasesAt := func(n int) int {
		g := graph.Cycles(n, 1, 5)
		c := newBaselineCluster(t, g.N, g.M(), 7)
		res, err := Connectivity(c, g)
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases
	}
	small, big := phasesAt(64), phasesAt(512)
	if big <= small {
		t.Logf("phases: n=64 -> %d, n=512 -> %d (expected growth, may flake)", small, big)
	}
	if big > 4*int(math.Log2(512))+8 {
		t.Fatalf("phases blew past the log-n envelope: %d", big)
	}
}

func TestBaselineMST(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{64, 300},
		{100, 150},
	} {
		g := graph.GNMWeighted(tc.n, tc.m, uint64(tc.n))
		c := newBaselineCluster(t, g.N, g.M(), 5)
		res, err := MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckMST(g, res.Edges); err != nil {
			t.Fatal(err)
		}
		_, want := graph.KruskalMSF(g)
		if res.Weight != want {
			t.Fatalf("weight %d want %d", res.Weight, want)
		}
		if res.Phases < 2 {
			t.Fatalf("suspiciously few phases: %d", res.Phases)
		}
	}
}

func TestBaselineLubyMIS(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.GNM(96, 400, 9),
		graph.Star(50),
		graph.Complete(24, false, 1),
		graph.Path(60),
	} {
		c := newBaselineCluster(t, g.N, g.M(), 13)
		res, err := MIS(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckMIS(g, res.Set); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBaselineColoring(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.GNM(96, 400, 9),
		graph.Cycles(60, 1, 3),
		graph.Grid(7, 9),
	} {
		c := newBaselineCluster(t, g.N, g.M(), 17)
		res, err := Coloring(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckColoring(g, res.Colors, res.MaxColor); err != nil {
			t.Fatal(err)
		}
		if res.MaxColor != g.MaxDegree() {
			t.Fatalf("palette %d want Δ=%d", res.MaxColor, g.MaxDegree())
		}
	}
}

func TestPeelMatchingStopsEarly(t *testing.T) {
	g := graph.GNM(128, 900, 21)
	c := newBaselineCluster(t, g.N, g.M(), 9)
	edges := make([][]graph.Edge, c.K())
	for j, e := range g.Edges {
		edges[j%c.K()] = append(edges[j%c.K()], e)
	}
	res, err := PeelMatching(c, edges, nil, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining > 400 {
		t.Fatalf("stopped with %d live edges", res.Remaining)
	}
	// The partial matching must still be a valid matching.
	match := make([]graph.Edge, 0)
	for i := range res.Matched {
		match = append(match, res.Matched[i]...)
	}
	if err := graph.CheckMatching(g, match, false); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineSpanner(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := graph.ConnectedGNM(96, 1200, uint64(k)+3, false)
		c := newBaselineCluster(t, g.N, g.M(), 7)
		res, err := Spanner(c, g, k)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.New(g.N, res.Edges, false)
		if err := graph.CheckSpanner(g, h, 2*k-1, 5, 11); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(res.Edges) >= g.M() {
			t.Fatalf("k=%d: no sparsification (%d of %d)", k, len(res.Edges), g.M())
		}
	}
}

func TestBaselineSpannerRoundsGrowWithK(t *testing.T) {
	// Θ(k) levels of O(1) rounds: rounds must grow with k (vs the
	// heterogeneous O(1)).
	g := graph.ConnectedGNM(96, 900, 5, false)
	roundsAt := func(k int) int {
		c := newBaselineCluster(t, g.N, g.M(), 9)
		res, err := Spanner(c, g, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	if r2, r6 := roundsAt(2), roundsAt(6); r6 <= r2 {
		t.Fatalf("rounds did not grow with k: k=2 -> %d, k=6 -> %d", r2, r6)
	}
}

// TestBaselineMatchingGolden pins Table 1's sublinear matching row — n=512,
// m=4096, seed 7 — to the matching produced when every peel iteration sorted
// its live endpoints four times. A maximal matching has many valid answers,
// so only the hash shows that one plan an iteration changes no edge.
func TestBaselineMatchingGolden(t *testing.T) {
	g := graph.ConnectedGNM(512, 4096, 7, false)
	c := newBaselineCluster(t, g.N, g.M(), 7)
	edges, res, err := MaximalMatching(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, edges, true); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprint(h, edges)
	if len(edges) != 246 || res.Iterations != 5 || h.Sum64() != 0xcb7f3c624bd48d9c {
		t.Fatalf("matching of %d edges in %d iterations, hash %#x; want the golden 246 in 5, 0xcb7f3c624bd48d9c",
			len(edges), res.Iterations, h.Sum64())
	}
}

// TestBaselinePhasesGolden pins the phase counts of Table 1's sublinear
// connectivity and MST rows — n=512, m=4096, seed 7. Their outputs are
// unique, so a changed coin sequence shows only here: requesting a phase's
// tail labels alone must flip the same coins.
func TestBaselinePhasesGolden(t *testing.T) {
	gU := graph.ConnectedGNM(512, 4096, 7, false)
	cc, err := Connectivity(newBaselineCluster(t, gU.N, gU.M(), 7), gU)
	if err != nil {
		t.Fatal(err)
	}
	gW := graph.ConnectedGNM(512, 4096, 7, true)
	mst, err := MST(newBaselineCluster(t, gW.N, gW.M(), 7), gW)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Phases != 13 || mst.Phases != 18 {
		t.Fatalf("connectivity in %d phases, MST in %d; want the golden 13 and 18", cc.Phases, mst.Phases)
	}
}

func TestBaselinesAreDeterministic(t *testing.T) {
	g := graph.GNMWeighted(80, 320, 5)
	run := func() int64 {
		c := newBaselineCluster(t, g.N, g.M(), 23)
		res, err := MST(c, g)
		if err != nil {
			t.Fatal(err)
		}
		return res.Weight
	}
	if run() != run() {
		t.Fatal("baseline MST nondeterministic")
	}
}

// TestPeelMatchingCallerPlanGolden: a plan handed down by the caller serves
// the peel's first iteration, so the peel sorts once fewer, and a plan of a
// superset of the edges' endpoints changes nothing else — its extra keys get
// no value and are never answered. On TestBaselineMatchingGolden's input,
// with every machine also requesting a vertex its edges may not touch and a
// key past every vertex, the matching is that test's golden.
func TestPeelMatchingCallerPlanGolden(t *testing.T) {
	g := graph.ConnectedGNM(512, 4096, 7, false)
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), NoLarge: true, Seed: 7, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		t.Fatal(err)
	}
	keys := prims.Endpoints(edges)
	for i := range keys {
		keys[i] = append(keys[i], int64(7*i%g.N), int64(g.N+i))
	}
	verts, slots := prims.DistinctSlots(keys)
	for i := range slots {
		slots[i] = slots[i][:2*len(edges[i])]
	}
	plan, err := prims.NewPlan(c, verts, RankValWords)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PeelMatching(c, edges, plan, slots, 0)
	if err != nil {
		t.Fatal(err)
	}
	matched := prims.Flatten(res.Matched)
	if err := graph.CheckMatching(g, matched, true); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprint(h, matched)
	if len(matched) != 246 || res.Iterations != 5 || h.Sum64() != 0xcb7f3c624bd48d9c {
		t.Errorf("matching of %d edges in %d iterations, hash %#x; want the golden 246 in 5, 0xcb7f3c624bd48d9c",
			len(matched), res.Iterations, h.Sum64())
	}
	sorts := 0
	for _, r := range tr.Rounds() {
		if r.Phase == "peel/plan/sort/broadcast" {
			sorts++
		}
	}
	if sorts != res.Iterations-1 {
		t.Errorf("the peel sorts %d times in %d iterations, want %d", sorts, res.Iterations, res.Iterations-1)
	}
}

// TestPeelMatchingRefusesUnplanned: a plan built for values narrower than
// the peel's, or one where an edge's machine does not request one of its
// endpoints, is refused with prims.ErrUnplanned.
func TestPeelMatchingRefusesUnplanned(t *testing.T) {
	g := graph.GNM(128, 900, 21)
	for _, tc := range []struct {
		name   string
		vwords int
		drop   bool // machine 0 does not request its first edge's U
	}{
		{"narrow", RankValWords - 1, false},
		{"missing key", RankValWords, true},
	} {
		c := newBaselineCluster(t, g.N, g.M(), 9)
		edges, err := prims.DistributeEdges(c, g)
		if err != nil {
			t.Fatal(err)
		}
		verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
		if tc.drop {
			u := int64(edges[0][0].U)
			verts[0] = slices.DeleteFunc(verts[0], func(x int64) bool { return x == u })
		}
		plan, err := prims.NewPlan(c, verts, tc.vwords)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PeelMatching(c, edges, plan, slots, 0); !errors.Is(err, prims.ErrUnplanned) {
			t.Errorf("%s: PeelMatching returned %v, want prims.ErrUnplanned", tc.name, err)
		}
	}
}
