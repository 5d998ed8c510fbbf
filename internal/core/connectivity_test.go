package core

import (
	"errors"
	"math"
	"regexp"
	"strconv"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sketch"
)

func checkConnectivity(t *testing.T, g *graph.Graph, seed uint64) *ConnectivityResult {
	t.Helper()
	c := newCluster(t, g.N, g.M(), seed)
	res, err := Connectivity(c, g)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, wantCC := graph.Components(g)
	if res.Components != wantCC {
		t.Fatalf("components %d, want %d", res.Components, wantCC)
	}
	for v := range wantLabels {
		if res.Labels[v] != wantLabels[v] {
			t.Fatalf("label of %d: got %d want %d", v, res.Labels[v], wantLabels[v])
		}
	}
	return res
}

func TestConnectivityVariousTopologies(t *testing.T) {
	checkConnectivity(t, graph.GNM(96, 300, 3), 5)
	checkConnectivity(t, graph.Cycles(90, 3, 7), 5)
	checkConnectivity(t, graph.Grid(8, 12), 5)
	checkConnectivity(t, graph.Star(64), 5)
	checkConnectivity(t, graph.Path(80), 5)
	// Isolated vertices plus a clique.
	k := graph.Complete(10, false, 1)
	g := graph.New(30, k.Edges, false)
	checkConnectivity(t, g, 5)
	// Empty graph: n components.
	checkConnectivity(t, graph.New(12, nil, false), 5)
}

func TestConnectivityManyComponents(t *testing.T) {
	// 10 small cliques.
	var edges []graph.Edge
	for b := 0; b < 10; b++ {
		base := b * 8
		for u := 0; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				edges = append(edges, graph.NewEdge(base+u, base+v, 1))
			}
		}
	}
	g := graph.New(80, edges, false)
	res := checkConnectivity(t, g, 9)
	if res.Components != 10 {
		t.Fatalf("components %d", res.Components)
	}
}

func TestConnectivityConstantRounds(t *testing.T) {
	// The whole point of Theorem C.1: rounds must not grow with n.
	small := graph.GNM(64, 200, 1)
	big := graph.GNM(256, 800, 1)
	cS := newCluster(t, small.N, small.M(), 3)
	rS, err := Connectivity(cS, small)
	if err != nil {
		t.Fatal(err)
	}
	cB := newCluster(t, big.N, big.M(), 3)
	rB, err := Connectivity(cB, big)
	if err != nil {
		t.Fatal(err)
	}
	if rB.Stats.Rounds > rS.Stats.Rounds+10 {
		t.Fatalf("rounds grew with n: %d -> %d", rS.Stats.Rounds, rB.Stats.Rounds)
	}
	if rB.Stats.Rounds > 60 {
		t.Fatalf("connectivity used %d rounds", rB.Stats.Rounds)
	}
}

func TestConnectivityDeterministic(t *testing.T) {
	g := graph.GNM(100, 250, 17)
	a := checkConnectivity(t, g, 7)
	b := checkConnectivity(t, g, 7)
	if a.Phases != b.Phases {
		t.Fatalf("nondeterministic phases: %d vs %d", a.Phases, b.Phases)
	}
}

func TestApproxMSTWeight(t *testing.T) {
	g := graph.ConnectedGNM(64, 400, 11, true)
	// Compress weights so the threshold count stays small.
	for i := range g.Edges {
		g.Edges[i].W = g.Edges[i].W%32 + 1
	}
	_, exact := graph.KruskalMSF(g)
	for _, eps := range []float64{0.5, 0.25} {
		c := newCluster(t, g.N, g.M(), 3)
		res, err := ApproxMSTWeight(c, g, eps)
		if err != nil {
			t.Fatal(err)
		}
		lo := float64(exact) * 0.9
		hi := float64(exact) * (1 + eps) * 1.1
		if float64(res.Estimate) < lo || float64(res.Estimate) > hi {
			t.Fatalf("eps=%.2f: estimate %d outside [%f, %f] (exact %d)",
				eps, res.Estimate, lo, hi, exact)
		}
	}
}

func TestApproxMSTTighterEpsIsCloser(t *testing.T) {
	g := graph.ConnectedGNM(72, 300, 23, true)
	for i := range g.Edges {
		g.Edges[i].W = g.Edges[i].W%64 + 1
	}
	_, exact := graph.KruskalMSF(g)
	errAt := func(eps float64) float64 {
		c := newCluster(t, g.N, g.M(), 5)
		res, err := ApproxMSTWeight(c, g, eps)
		if err != nil {
			t.Fatal(err)
		}
		d := float64(res.Estimate - exact)
		if d < 0 {
			d = -d
		}
		return d / float64(exact)
	}
	coarse, fine := errAt(1.0), errAt(0.1)
	if fine > coarse+0.05 {
		t.Fatalf("finer eps gave worse error: %.3f vs %.3f", fine, coarse)
	}
	if fine > 0.2 {
		t.Fatalf("eps=0.1 error too large: %.3f", fine)
	}
}

// TestApproxMSTWeightRejectsNonFiniteEps: NaN passes an `eps <= 0` guard and
// +Inf is positive, and either makes the next threshold's int64 conversion
// implementation-defined, degrading the geometric threshold walk to one
// Connectivity run per integer weight. Both must be refused before the
// cluster is touched; the small round budget keeps a regression a quick
// ErrRounds instead of a crawl through 10⁶ thresholds.
func TestApproxMSTWeightRejectsNonFiniteEps(t *testing.T) {
	g := graph.Path(8)
	g.Weighted = true
	g.Edges[0].W = 1_000_000
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 3, MaxRounds: 40})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ApproxMSTWeight(c, g, eps)
		if err == nil || errors.Is(err, mpc.ErrRounds) {
			t.Errorf("eps=%v: got error %v, want a validation error", eps, err)
		}
		if r := c.Stats().Rounds; r != 0 {
			t.Errorf("eps=%v: %d rounds ran before eps was refused", eps, r)
		}
	}
}

// TestConnectivityHotKeys pins the sketch phase's hot-key behaviour: the
// Sort lands every incidence of a vertex in one bucket, 2·deg(v) words, so
// hubs are exact on the default cluster, and a cluster whose small cap is
// below a hub's 2·deg words refuses the run with the engine's typed
// ErrCapacity naming the receiving machine — never a panic, never a wrong
// answer.
func TestConnectivityHotKeys(t *testing.T) {
	checkConnectivity(t, graph.Star(2048), 5)
	checkConnectivity(t, graph.PlantedHubs(1024, 4, 4, 600, 3), 5)

	g := graph.Star(2048)
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 5, CSmall: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	hub := 2 * (g.N - 1)
	if c.SmallCap() >= hub {
		t.Fatalf("small cap %d is not below the hub's %d words", c.SmallCap(), hub)
	}
	_, err = Connectivity(c, g)
	if !errors.Is(err, mpc.ErrCapacity) {
		t.Fatalf("got %v, want ErrCapacity", err)
	}
	named := regexp.MustCompile(`machine \d+ received (\d+) > cap`).FindStringSubmatch(err.Error())
	if named == nil {
		t.Fatalf("%q names no receiving machine", err)
	}
	t.Logf("refused: %v", err)
	if received, _ := strconv.Atoi(named[1]); received < hub {
		t.Errorf("%q: refused below the hub's %d words", err, hub)
	}
}

// sketchPhaseInput is the sketch phase's input on a K-machine cluster: the
// distributed edges, every machine's run of incidences as the phase's Sort
// leaves it, and one updater per phase (any seeds do: the shape is what the
// pins below measure).
func sketchPhaseInput(tb testing.TB, g *graph.Graph, k int) (edges [][]graph.Edge, runs [][]sketch.Incidence, updaters []*sketch.EdgeUpdater, levels int) {
	tb.Helper()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: k, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	if edges, err = prims.DistributeEdges(c, g); err != nil {
		tb.Fatal(err)
	}
	if runs, err = sortIncidences(c, edges); err != nil {
		tb.Fatal(err)
	}
	phases, levels := sketchShape(g.N, g.M())
	updaters = make([]*sketch.EdgeUpdater, phases)
	for p := range updaters {
		updaters[p] = sketch.NewFamilyLevels(levels, uint64(p)+1).NewEdgeUpdater(g.N)
	}
	return edges, runs, updaters, levels
}

// TestConnectivitySketchCellsFollowDepth pins what the sketch phase stores
// at a scaled-down `scale` shape: one sketch per (phase, non-isolated
// vertex), each carved at exactly its deepest update — measured here on an
// empty prefix grown by AddEdgeBoth, one edge at a time — so the cells are
// Σ of the deepest updates, a fraction of sketches × levels (the full-width
// carve is 100 %).
func TestConnectivitySketchCellsFollowDepth(t *testing.T) {
	g := graph.GNM(1024, 4096, 7)
	_, runs, updaters, levels := sketchPhaseInput(t, g, 128)
	deepest := make(map[int64]int) // phase·n + vertex → its deepest update
	for p, up := range updaters {
		for _, e := range g.Edges {
			var su, sv sketch.Sketch
			up.AddEdgeBoth(&su, &sv, e)
			for _, v := range []int{e.U, e.V} {
				key := int64(p)*int64(g.N) + int64(v)
				deepest[key] = max(deepest[key], su.Depth())
			}
		}
	}
	sketches, cells := 0, 0
	for i, run := range runs {
		for _, kv := range vertexSketches(updaters, run, g.N) {
			if kv.V.Depth() != deepest[kv.K] {
				t.Fatalf("machine %d key %d: depth %d, want its deepest update's %d", i, kv.K, kv.V.Depth(), deepest[kv.K])
			}
			sketches++
			cells += kv.V.Depth()
		}
	}
	if sketches != len(deepest) {
		t.Fatalf("%d sketches built, want one per (phase, non-isolated vertex): %d", sketches, len(deepest))
	}
	t.Logf("%d cells for %d sketches of %d levels", cells, sketches, levels)
	if cells*100 > 35*sketches*levels {
		t.Errorf("%d cells for %d sketches of %d levels, want at most 35 %% of the full width", cells, sketches, levels)
	}
}

// TestConnectivityAllocsPerMachine pins the build closure's allocations per
// machine: the item list plus sketch.VertexSketches' four, whatever the
// machine holds, and none for an empty run.
func TestConnectivityAllocsPerMachine(t *testing.T) {
	for _, m := range []int{1, 30, 900} {
		g := graph.GNM(256, m, uint64(m))
		_, runs, updaters, _ := sketchPhaseInput(t, g, 2)
		run := runs[0]
		if len(run) == 0 {
			run = runs[1]
		}
		if got := testing.AllocsPerRun(10, func() { vertexSketches(updaters, run, g.N) }); got != 5 {
			t.Errorf("a machine holding %d incidences allocates %v times, want 5 whatever it holds", len(run), got)
		}
	}
	_, _, updaters, _ := sketchPhaseInput(t, graph.GNM(256, 30, 1), 2)
	if got := testing.AllocsPerRun(10, func() { vertexSketches(updaters, nil, 256) }); got != 0 {
		t.Errorf("an empty run allocates %v times, want 0", got)
	}
}
