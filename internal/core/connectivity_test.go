package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sketch"
	"hetmpc/internal/trace"
	"hetmpc/internal/unionfind"
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
		for _, kv := range vertexSketches(updaters, run, 0, g.N) {
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

// TestConnectivityGatherChargesStoredLevels pins the sketch gathers' charge
// on the same shape and on planted hubs: a share ships its group once, then
// each of its sketches' depth and stored levels, so the second gather round
// carries one word a share plus Σ (1 + 2·Depth()) words over the sketches
// it ships. In the first, each vertex ships whichever costs fewer words:
// that share with a degree word more, shareWords_v, or its incidences as
// its group, its degree and its deg neighbours, 2 + deg_v (on a tie), so
// the round carries Σ_v min(2 + deg_v, shareWords_v). The first gather's
// sketches — families 0…contractAfter−1 of every vertex — are counted here
// from sketches rebuilt of those families, and the second's from what
// reached the large machine: one sketch per family and component share,
// fewer than one per family and vertex. Together they charge less than the
// full sampler's 1 + 2·levels for every (family, vertex) sketch of the
// families Borůvka read. On planted hubs both records ship: the hubs their
// sketches, the core vertices their incidences. On G(1024, 32·1024) both
// do too, and most vertices' degrees sit near their sketches' words, so
// the first gather's price reads their depths to the last family.
func TestConnectivityGatherChargesStoredLevels(t *testing.T) {
	for _, w := range []struct {
		name string
		g    *graph.Graph
		both bool // some vertex ships each record
	}{
		{"gnm", graph.GNM(1024, 4096, 7), false},
		{"hubs", graph.PlantedHubs(1024, 4, 8, 400, 7), true},
		{"dense", graph.ConnectedGNM(1024, 32*1024, 7, false), true},
	} {
		t.Run(w.name, func(t *testing.T) { gatherChargesStoredLevels(t, w.g, w.both) })
	}
}

func gatherChargesStoredLevels(t *testing.T, g *graph.Graph, both bool) {
	const k = 128
	edges, runs, _, levels := sketchPhaseInput(t, g, k)
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: k, Seed: 7, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := gatherSketches(c, edges, 7, g.N, g.M())
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.families) != contractAfter {
		t.Fatalf("the first gather shipped %d families, want contractAfter = %d", len(sk.families), contractAfter)
	}
	updaters := make([]*sketch.EdgeUpdater, contractAfter)
	for p, f := range sk.families {
		updaters[p] = f.NewEdgeUpdater(g.N)
	}
	var first, dense, sparse int64
	for _, run := range runs {
		items := vertexSketches(updaters, run, 0, g.N)
		for d, j := 0, 0; j < len(run); d++ {
			deg := 1
			for j+deg < len(run) && run[j+deg].V == run[j].V {
				deg++
			}
			sketchWords := 0
			for _, kv := range items[d*contractAfter : (d+1)*contractAfter] {
				sketchWords += kv.V.Words()
			}
			if price := shareWords(sketchWords, 1); 2+deg <= price {
				first, sparse = first+2+int64(deg), sparse+1
			} else {
				first, dense = first+int64(price), dense+1
			}
			j += deg
		}
	}
	vertices := dense + sparse
	t.Logf("the first gather: %d vertices ship their incidences, %d their sketches", sparse, dense)
	if both && (dense == 0 || sparse == 0) {
		t.Errorf("%d vertices ship their incidences and %d their sketches, want some of each", sparse, dense)
	}
	gathers := func() (words []int64) {
		for _, r := range tr.Rounds() {
			if r.Phase == "sketch/gather" {
				words = append(words, r.Words)
			}
		}
		return words
	}
	if got := gathers(); len(got) != 1 || got[0] != first {
		t.Fatalf("the first gather carries %v words, want Σ_v min(2 + deg_v, shareWords_v) = %d", got, first)
	}

	phases, err := boruvka(sk.dsu, sk.phases, sk.sum)
	if err != nil {
		t.Fatal(err)
	}
	if phases <= contractAfter {
		t.Fatalf("Borůvka read %d families: the run never contracted", phases)
	}
	base := int64(contractAfter) * int64(g.N)
	var second, shipped int64
	for _, kv := range sk.atLarge {
		if kv.K >= base {
			second += 1 + 2*int64(kv.V.Depth())
			shipped++
		}
	}
	later := int64(sk.phases - contractAfter)
	if got := gathers(); len(got) != 2 || got[1] != second+shipped/later {
		t.Errorf("the gathers carry %v words, want the second's Σ (1 + 2·depth) + a group word a share = %d + %d", got, second, shipped/later)
	}
	if shipped%later != 0 || shipped >= later*vertices {
		t.Errorf("the second gather shipped %d sketches of %d families, want a whole number of shares a family, fewer than the %d vertices", shipped, later, vertices)
	}
	full := int64(phases) * vertices * (1 + 2*int64(levels))
	total := first + second + shipped/later
	t.Logf("gathers: %d + %d words, %d shares a family after %d phases; %d at full width", first, second+shipped/later, shipped/later, contractAfter, full)
	if 2*total > full {
		t.Errorf("the gathers charge %d words, want under half the full sampler's %d", total, full)
	}
}

// TestBoruvkaSketchFailureIsTyped runs the large machine's Borůvka on a
// 64-vertex path with P = 3 sketch families, all of them in the first
// gather, and with P = 4, whose fourth family the contraction ships: three
// or four phases, each joining a component along at most one sampled edge,
// leave components with an edge leaving them at this seed, so each run must
// fail with an error wrapping ErrSketchFailure — never return a labelling.
// The cluster checkpoints every round, and each barrier replicates what the
// small machines hold: their incidence runs, 2 words an incidence, as Sort
// registered them, through the first gather, the scatter and the route, and
// the routed incidences, 3 words each with their root, from then on. A path
// has no vertex whose sketches cost fewer words than its incidences, so the
// large machine holds every incidence, the route carries none and the
// second gather's barrier replicates nothing.
func TestBoruvkaSketchFailureIsTyped(t *testing.T) {
	g := graph.Path(64)
	incidences := int64(2 * g.M())
	for _, w := range []struct {
		phases, rounds int
		replicated     int64
	}{
		{3, 1, 2 * incidences},
		{4, 4, 3 * 2 * incidences},
	} {
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: 4, Seed: 7, Faults: &fault.Plan{Interval: 1}})
		if err != nil {
			t.Fatal(err)
		}
		edges, err := prims.DistributeEdges(c, g)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := sortIncidences(c, edges)
		if err != nil {
			t.Fatal(err)
		}
		_, levels := sketchShape(g.N, g.M())
		sk := &sketchPhase{c: c, runs: runs, dsu: unionfind.New(g.N), seed: 1, n: g.N, levels: levels, phases: w.phases}
		before := c.Stats()
		if err := sk.gatherVertices(); err != nil {
			t.Fatal(err)
		}
		if phases, err := boruvka(sk.dsu, sk.phases, sk.sum); !errors.Is(err, ErrSketchFailure) {
			t.Fatalf("P = %d on a 64-path: err = %v after %d phases, want ErrSketchFailure", w.phases, err, phases)
		}
		if len(sk.families) != w.phases {
			t.Errorf("P = %d: %d families gathered, want all of them", w.phases, len(sk.families))
		}
		d := c.Stats().Sub(before)
		if d.Rounds != w.rounds || d.Checkpoints != w.rounds {
			t.Errorf("P = %d: the sketch rounds took %d rounds and %d checkpoints, want %d of each", w.phases, d.Rounds, d.Checkpoints, w.rounds)
		}
		if d.ReplicationWords != w.replicated {
			t.Errorf("P = %d: the checkpoints replicated %d words, want the held incidences' %d", w.phases, d.ReplicationWords, w.replicated)
		}
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
		if got := testing.AllocsPerRun(10, func() { vertexSketches(updaters, run, 0, g.N) }); got != 5 {
			t.Errorf("a machine holding %d incidences allocates %v times, want 5 whatever it holds", len(run), got)
		}
	}
	_, _, updaters, _ := sketchPhaseInput(t, graph.GNM(256, 30, 1), 2)
	if got := testing.AllocsPerRun(10, func() { vertexSketches(updaters, nil, 0, 256) }); got != 0 {
		t.Errorf("an empty run allocates %v times, want 0", got)
	}
}

// TestConnectivityContractionGolden pins the contraction (DESIGN.md §3.4) on
// TestConnectivityBatchGolden's input — G(512, 4096) at its four seeds, on
// the default cluster — at seed 7 on K = 24 machines, and on planted hubs,
// whose 8 hubs ship their sketches while every other vertex ships its
// incidences. Every run reads more than contractAfter families, so each
// contracts in 3 rounds (9 in all on the default cluster, whose incidence
// Sort exchanges summaries), with the pinned components left after
// contractAfter phases; Borůvka reads the pinned phases and finds the
// graph's components. At every family t from 0 to P−1, the sums Borůvka
// forms — the gathered sketches of family t and the updates of the
// incidences the large machine holds — equal, cell for cell, the sums of
// per-vertex sketches of family t that the test builds itself from the
// graph's incidences. On G(512, 4096) no vertex ships sketches, so the
// contraction's three rounds carry no word. On the hubs it carries the
// hubs, and the packing's bins split a component between machines, so
// share keys repeat. A star, which Borůvka finishes within contractAfter
// families, charges no scatter, route or second gather: 6 rounds, one
// gather.
func TestConnectivityContractionGolden(t *testing.T) {
	for _, w := range []struct {
		g                       *graph.Graph
		seed                    uint64
		k, phases, comps, final int
		dense                   bool // some vertex ships its sketches
	}{
		{graph.ConnectedGNM(512, 4096, 7, false), 7, 0, 8, 46, 1, false},
		{graph.ConnectedGNM(512, 4096, 24, false), 24, 0, 10, 43, 1, false},
		{graph.ConnectedGNM(512, 4096, 17, false), 17, 0, 11, 38, 1, false},
		{graph.ConnectedGNM(512, 4096, 61, false), 61, 0, 13, 50, 1, false},
		{graph.ConnectedGNM(512, 4096, 7, false), 7, 24, 8, 46, 1, false},
		{graph.PlantedHubs(1024, 4, 8, 400, 7), 7, 0, 10, 47, 1, true},
	} {
		g := w.g
		name := fmt.Sprintf("n=%d m=%d seed %d K=%d", g.N, g.M(), w.seed, w.k)
		c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), K: w.k, Seed: w.seed})
		if err != nil {
			t.Fatal(err)
		}
		edges, err := prims.DistributeEdges(c, g)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := prims.BroadcastSeed(c)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := gatherSketches(c, edges, seed, g.N, g.M())
		if err != nil {
			t.Fatal(err)
		}
		var all []sketch.Incidence // every incidence, sorted by vertex
		for _, e := range g.Edges {
			if e.U != e.V {
				all = append(all, sketch.Incidence{V: e.U, U: e.V}, sketch.Incidence{V: e.V, U: e.U})
			}
		}
		slices.SortStableFunc(all, func(a, b sketch.Incidence) int { return cmp.Compare(a.V, b.V) })
		before := c.Stats()
		got, want := make([]*sketch.Sketch, g.N), make([]*sketch.Sketch, g.N)
		comps := 0
		sum := func(ph int, sums []*sketch.Sketch) (*sketch.Family, error) {
			f, err := sk.sum(ph, sums)
			if err != nil {
				return nil, err
			}
			if ph == contractAfter {
				comps = components(sk.dsu, all)
			}
			perVertex := vertexSketches([]*sketch.EdgeUpdater{f.NewEdgeUpdater(g.N)}, all, ph, g.N)
			if err := componentSums(want, f, nil, sk.dsu, perVertex, nil, int64(ph)*int64(g.N)); err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(sums, want) {
				t.Errorf("%s: family %d's component sums differ from the per-vertex sketches'", name, ph)
			}
			return f, nil
		}
		phases, err := boruvka(sk.dsu, sk.phases, sum)
		if err != nil {
			t.Fatal(err)
		}
		for ph := phases; ph < sk.phases; ph++ { // the families Borůvka left unread
			if _, err := sum(ph, got); err != nil {
				t.Fatal(err)
			}
		}
		d := c.Stats().Sub(before)
		repeats := 0
		for j := 1; j < len(sk.atLarge); j++ {
			if sk.atLarge[j].K == sk.atLarge[j-1].K {
				repeats++
			}
		}
		_, wantCC := graph.Components(g)
		t.Logf("%s: %d phases, %d components after %d, %d repeated share keys, %d rounds, %d contraction words, %d vertices ship sketches", name, phases, comps, contractAfter, repeats, c.Stats().Rounds, d.TotalWords, len(sk.vertices))
		if phases != w.phases || comps != w.comps || sk.dsu.Count() != wantCC || wantCC != w.final {
			t.Errorf("%s: %d phases, %d components after %d, %d at the end; want %d, %d, %d", name, phases, comps, contractAfter, sk.dsu.Count(), w.phases, w.comps, w.final)
		}
		if d.Rounds != 3 || w.k == 0 && c.Stats().Rounds != 9 {
			t.Errorf("%s: the contraction took %d rounds of %d, want 3 (of 9 on the default cluster)", name, d.Rounds, c.Stats().Rounds)
		}
		if w.dense != (len(sk.vertices) > 0) || w.dense != (d.TotalWords > 0) {
			t.Errorf("%s: %d vertices ship sketches and the contraction carries %d words; want some of each: %v", name, len(sk.vertices), d.TotalWords, w.dense)
		}
		if w.dense && repeats == 0 {
			t.Errorf("%s: no component straddles two machines", name)
		}
	}

	g := graph.Star(64)
	tr := trace.New()
	c, err := mpc.New(mpc.Config{N: g.N, M: g.M(), Seed: 5, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Connectivity(c, g)
	if err != nil {
		t.Fatal(err)
	}
	gathers := 0
	for _, r := range tr.Rounds() {
		switch r.Phase {
		case "connectivity/sketch/scatter", "connectivity/sketch/route":
			t.Errorf("the star charges a %s round", r.Phase)
		case "connectivity/sketch/gather":
			gathers++
		}
	}
	if res.Phases > contractAfter || res.Stats.Rounds != 6 || gathers != 1 {
		t.Errorf("the star: %d phases in %d rounds, %d gathers; want at most %d phases in 6 rounds, one gather", res.Phases, res.Stats.Rounds, gathers, contractAfter)
	}
}

// components is the number of components of dsu that hold an incidence of
// run.
func components(dsu *unionfind.DSU, run []sketch.Incidence) int {
	roots := make(map[int]bool)
	for _, in := range run {
		roots[dsu.Find(in.V)] = true
	}
	return len(roots)
}
