package core

import (
	"fmt"
	"math"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/sketch"
	"hetmpc/internal/unionfind"
	"hetmpc/internal/xrand"
)

// ConnectivityResult is the output of the Appendix C.1 algorithm.
type ConnectivityResult struct {
	Labels     []int // per-vertex component label (smallest member id)
	Components int
	Phases     int // Borůvka phases executed on the large machine (local)
	Stats      Stats
}

// Connectivity identifies the connected components in O(1) rounds
// (Theorem C.1): the small machines sort the edge incidences by vertex and
// build each vertex's linear ℓ0-sampling sketch where its incidences meet;
// the sketches go to the large machine — O(n polylog n) bits in total —
// which then runs Borůvka locally, sampling an outgoing edge of each
// component from the summed sketches (Property 1) of fresh rounds.
//
// Shared randomness is a single broadcast seed, replacing [36]'s shared
// random bits exactly as the paper describes.
func Connectivity(c *mpc.Cluster, g *graph.Graph) (*ConnectivityResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("Connectivity")
	}
	sp := c.Span("connectivity")
	n := g.N
	res := &ConnectivityResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	phases, levels := sketchShape(n, len(g.Edges))
	universe := int64(n) * int64(n)
	families := make([]*sketch.Family, phases)
	for t := range families {
		families[t] = sketch.NewFamilyLevels(levels, xrand.Split(seed, uint64(t)+1))
	}
	// The model ships the paper's full ℓ0-sampler per sketch, whatever
	// prefix of its levels the host stores.
	skWords := families[0].Words()
	// One edge updater per family: precomputed fingerprint power tables.
	// Updaters are read-only and shared across the small-machine goroutines.
	updaters := make([]*sketch.EdgeUpdater, phases)
	for t := range updaters {
		updaters[t] = families[t].NewEdgeUpdater(n)
	}

	atLarge, err := gatherSketches(c, edges, updaters, n, skWords)
	if err != nil {
		return nil, err
	}

	// Large machine: local Borůvka with fresh sketches per phase.
	dsu := unionfind.New(n)
	sums := make([]*sketch.Sketch, n)
	for t := 0; t < phases; t++ {
		if err := componentSums(sums, families[t], universe, dsu, atLarge, int64(t)*int64(n)); err != nil {
			return nil, err
		}
		allZero := true
		for _, s := range sums { // ascending root order
			if s == nil || s.IsZero() {
				continue
			}
			allZero = false
			idx, _, ok := families[t].Query(s)
			if !ok {
				continue // sampler failure: retry next phase
			}
			u, v := sketch.DecodeEdgeKey(idx, n)
			dsu.Union(u, v)
		}
		res.Phases++
		if allZero {
			break
		}
	}
	// Verify completion: any nonzero component sum left means we ran out of
	// phases (vanishingly unlikely with 2 log n + 6 phases).
	lastT := res.Phases - 1
	if err := componentSums(sums, families[lastT], universe, dsu, atLarge, int64(lastT)*int64(n)); err != nil {
		return nil, err
	}
	for _, s := range sums {
		if s != nil && !s.IsZero() {
			return nil, fmt.Errorf("core: connectivity did not converge in %d phases", phases)
		}
	}

	// Labels: smallest member id per component (computed on the large
	// machine, where the output resides).
	min := make([]int, n)
	for i := range min {
		min[i] = n
	}
	for v := 0; v < n; v++ {
		r := dsu.Find(v)
		if v < min[r] {
			min[r] = v
		}
	}
	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = min[dsu.Find(v)]
	}
	res.Labels = labels
	res.Components = dsu.Count()
	return res, nil
}

// sketchShape returns the number of Borůvka phases — one sketch family each
// — and the level count of every family for an n-vertex, m-edge input.
func sketchShape(n, m int) (phases, levels int) {
	phases = int(math.Ceil(math.Log2(float64(n)+2))) + 8
	// Levels beyond log2(support) are always empty: the support of any
	// sketched vector is at most 2m, so cap the level count there.
	levels = 2
	for u := 1; u < 2*m+2; u <<= 1 {
		levels++
	}
	levels += 2
	maxLevels := 2
	for u := int64(1); u < int64(n)*int64(n); u <<= 1 {
		maxLevels++
	}
	return phases, min(levels, maxLevels)
}

// gatherSketches is the "sketch" phase: the incidences meet by vertex, each
// machine builds the sketches of its run's vertices — each the sum of the
// partial sketches of any edge partition, cell for cell, as a sketch is
// linear — and ships them to the large machine, keyed phase·n + vertex.
func gatherSketches(c *mpc.Cluster, edges [][]graph.Edge, updaters []*sketch.EdgeUpdater, n, skWords int) (map[int64]*sketch.Sketch, error) {
	defer c.Span("sketch").End()
	runs, err := sortIncidences(c, edges)
	if err != nil {
		return nil, err
	}
	items := make([][]prims.KV[*sketch.Sketch], c.K())
	c.Each(func(i int) {
		items[i] = vertexSketches(updaters, runs[i], n)
	})
	return prims.GatherMap(c, items, skWords)
}

// sortIncidences sorts the two incidences of every machine's edges, 2 words
// each, by vertex alone: all of a vertex's land in one bucket. A self-loop
// has none, as its two updates would cancel.
func sortIncidences(c *mpc.Cluster, edges [][]graph.Edge) ([][]sketch.Incidence, error) {
	incs := make([][]sketch.Incidence, c.K())
	c.Each(func(i int) {
		incs[i] = make([]sketch.Incidence, 0, 2*len(edges[i]))
		for _, e := range edges[i] {
			if e.U != e.V {
				incs[i] = append(incs[i], sketch.Incidence{V: e.U, U: e.V}, sketch.Incidence{V: e.V, U: e.U})
			}
		}
	})
	return prims.Sort(c, incs, 2, func(in sketch.Incidence) prims.SortKey { return prims.SortKey{A: int64(in.V)} })
}

// vertexSketches is one small machine's sketches of its run of incidences
// sorted by vertex, keyed phase·n + vertex.
func vertexSketches(updaters []*sketch.EdgeUpdater, run []sketch.Incidence, n int) []prims.KV[*sketch.Sketch] {
	sks := sketch.VertexSketches(updaters, run)
	items := make([]prims.KV[*sketch.Sketch], 0, len(sks))
	for j, in := range run {
		if j == 0 || in.V != run[j-1].V {
			for t := range updaters {
				items = append(items, prims.KV[*sketch.Sketch]{K: int64(t)*int64(n) + int64(in.V), V: &sks[len(items)]})
			}
		}
	}
	return items
}

// componentSums fills sums[r] with the sum of the vertex sketches keyed
// base+v over the members v of the component rooted at r under dsu, and
// with nil where no member has a sketch (isolated vertices have none).
// Members are added in increasing order into a full-width sketch of f, so
// no merge grows its destination and atLarge is left untouched.
func componentSums(sums []*sketch.Sketch, f *sketch.Family, universe int64, dsu *unionfind.DSU, atLarge map[int64]*sketch.Sketch, base int64) error {
	clear(sums)
	for v := range sums {
		s, ok := atLarge[base+int64(v)]
		if !ok {
			continue
		}
		r := dsu.Find(v)
		if sums[r] == nil {
			sums[r] = f.NewSketch(universe)
		}
		if err := sums[r].Merge(s); err != nil {
			return err
		}
	}
	return nil
}

// MSTApproxResult is the output of the (1+ε)-MST-weight approximation.
type MSTApproxResult struct {
	Estimate   int64
	Thresholds int
	Stats      Stats
}

// ApproxMSTWeight estimates the MST weight within (1+ε) (Theorem C.2 /
// Appendix C.1.1) by the Chazelle-style reduction to connected-component
// counting: the number of components of the threshold subgraphs G_{≤τ} at
// geometrically spaced thresholds τ. Each count is one sketch-connectivity
// run; the thresholds are processed sequentially (DESIGN.md substitution 2).
// The input must be connected for the estimate to be meaningful (the
// standard assumption of the reduction).
func ApproxMSTWeight(c *mpc.Cluster, g *graph.Graph, eps float64) (*MSTApproxResult, error) {
	// NaN fails every comparison and +Inf passes eps > 0; either would make
	// the int64 conversion of the next threshold implementation-defined.
	if !(eps > 0) || math.IsInf(eps, 1) {
		return nil, fmt.Errorf("core: eps must be positive and finite, got %v", eps)
	}
	if !c.HasLarge() {
		return nil, errNeedsLarge("ApproxMSTWeight")
	}
	sp := c.Span("approx-mst")
	res := &MSTApproxResult{}
	defer func() { res.Stats = statsOf(sp.End()) }()
	var maxW int64 = 1
	for _, e := range g.Edges {
		if e.W > maxW {
			maxW = e.W
		}
	}
	// Thresholds τ_0 = 0 < τ_1 = 1 < ... geometric with ratio (1+ε),
	// integer, strictly increasing, last ≥ maxW.
	thresholds := []int64{0}
	for t := int64(1); t < maxW; {
		thresholds = append(thresholds, t)
		nt := int64(math.Ceil(float64(t) * (1 + eps)))
		if nt <= t {
			nt = t + 1
		}
		t = nt
	}
	thresholds = append(thresholds, maxW)

	// MST = Σ_{i=0}^{W-1} (c_i - 1) with c_i = #CC(edges of weight ≤ i);
	// approximate the sum with the component counts at the thresholds.
	var est int64
	for j := 0; j+1 < len(thresholds); j++ {
		tau := thresholds[j]
		width := thresholds[j+1] - tau
		sub := &graph.Graph{N: g.N, Weighted: g.Weighted}
		for _, e := range g.Edges {
			if e.W <= tau {
				sub.Edges = append(sub.Edges, e)
			}
		}
		cc, err := Connectivity(c, sub)
		if err != nil {
			return nil, err
		}
		est += width * int64(cc.Components-1)
		res.Thresholds++
	}
	res.Estimate = est
	return res, nil
}
