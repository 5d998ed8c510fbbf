package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

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
	Stats      mpc.Stats
}

// Connectivity identifies the connected components in O(1) rounds
// (Theorem C.1): the small machines sort the edge incidences by vertex and
// build each vertex's linear ℓ0-sampling sketch where its incidences meet;
// the sketches go to the large machine, each charged the levels it stores
// (Sketch.Words: the levels above are zero by construction and rebuilt
// there) — O(n polylog n) bits in total — which then runs Borůvka locally,
// sampling an outgoing edge of each component from the summed sketches
// (Property 1) of fresh rounds. The first ⌈log2 n⌉ families' sketches are
// shipped at once, and each later batch only when Borůvka reaches a family
// not yet shipped (sketchBatches). A run whose samplers fail in every phase
// returns an error wrapping ErrSketchFailure.
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
	defer func() { res.Stats = sp.End().Model() }()
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}

	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	sk, err := gatherSketches(c, edges, seed, n, len(g.Edges))
	if err != nil {
		return nil, err
	}
	var dsu *unionfind.DSU
	if dsu, res.Phases, err = boruvka(sk.phases, n, sk.phase); err != nil {
		return nil, err
	}

	// Labels: smallest member id per component (computed on the large
	// machine, where the output resides). Descending, the last write to a
	// root is its smallest member.
	smallest := make([]int, n)
	for v := n - 1; v >= 0; v-- {
		smallest[dsu.Find(v)] = v
	}
	res.Labels = make([]int, n)
	for v := range res.Labels {
		res.Labels[v] = smallest[dsu.Find(v)]
	}
	res.Components = dsu.Count()
	return res, nil
}

// ErrSketchFailure is wrapped when the large machine's Borůvka runs out of
// sketch families while a component still has an edge leaving it: its
// ℓ0-samplers failed in every phase, which Theorem C.1 bounds w.h.p.
var ErrSketchFailure = errors.New("sketch connectivity did not converge")

// boruvka is the large machine's local Borůvka over phases sketch families,
// phase(t) returning family t and its gathered sketches by vertex, keyed
// t·n + vertex: phase t sums family t's sketches per component and joins
// each component along the edge its sum samples, until every sum is zero.
// It returns the components and the phases run, or an error wrapping
// ErrSketchFailure if a sum is still nonzero after the last family's phase.
func boruvka(phases, n int, phase func(t int) (*sketch.Family, []prims.KV[*sketch.Sketch], error)) (*unionfind.DSU, int, error) {
	universe := int64(n) * int64(n)
	dsu := unionfind.New(n)
	sums := make([]*sketch.Sketch, n)
	last := phases - 1
	// One pass past the last phase re-sums the last family over the final
	// components, to verify that none has an edge leaving it.
	for t := 0; ; t++ {
		ph := min(t, last)
		f, run, err := phase(ph)
		if err != nil {
			return nil, 0, err
		}
		if err := componentSums(sums, f, universe, dsu, run, int64(ph)*int64(n)); err != nil {
			return nil, 0, err
		}
		done := true
		for _, s := range sums { // ascending root order
			if s == nil || s.IsZero() {
				continue
			}
			if t > last {
				return nil, 0, fmt.Errorf("core: connectivity: a component still has an outgoing edge after %d phases: %w", phases, ErrSketchFailure)
			}
			done = false
			if idx, _, ok := f.Query(s); ok { // a sampler failure retries next phase
				dsu.Union(sketch.DecodeEdgeKey(idx, n))
			}
		}
		if done {
			return dsu, min(t+1, phases), nil
		}
	}
}

// sketchShape returns P, the number of Borůvka phases a run may take — one
// sketch family each — and the level count of every family for an n-vertex,
// m-edge input.
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

// sketchBatches is the sketch phase between the large machine's requests.
// The small machines keep their incidence runs as the Sort left them — Sort
// registered them as the machines' held state, and no later collective of
// the phase registers another, so checkpoints count them between batches —
// and build family t, seeded xrand.Split(seed, t+1), when it is asked for.
// The large machine holds every gathered family's sketches, keyed
// phase·n + vertex: phase by phase, each phase's by vertex.
type sketchBatches struct {
	c         *mpc.Cluster
	runs      [][]sketch.Incidence
	seed      uint64
	n, levels int
	phases    int              // P: the families a run gathers at most
	next      int              // the next later batch's size: 1, 2, 4, …
	families  []*sketch.Family // the families gathered, in phase order
	atLarge   []prims.KV[*sketch.Sketch]
}

// gatherSketches is the "sketch" phase up to its first batch: the
// incidences meet by vertex, and the sketches of the first ⌈log2 n⌉ of the
// P families are gathered.
func gatherSketches(c *mpc.Cluster, edges [][]graph.Edge, seed uint64, n, m int) (*sketchBatches, error) {
	defer c.Span("sketch").End()
	runs, err := sortIncidences(c, edges)
	if err != nil {
		return nil, err
	}
	phases, levels := sketchShape(n, m)
	s := &sketchBatches{c: c, runs: runs, seed: seed, n: n, levels: levels, phases: phases, next: 1}
	return s, s.gather(min(max(bits.Len(uint(n-1)), 1), phases))
}

// phase returns family t and its sketches at the large machine, by vertex.
// Borůvka reads the families in order, so a family not yet gathered is the
// first of the next batch, which it pulls.
func (s *sketchBatches) phase(t int) (*sketch.Family, []prims.KV[*sketch.Sketch], error) {
	if t >= len(s.families) {
		if err := s.pull(); err != nil {
			return nil, nil, err
		}
	}
	// at is the first entry of phase t's sketches, or of a later phase's.
	at := func(t int) int {
		return sort.Search(len(s.atLarge), func(j int) bool { return s.atLarge[j].K >= int64(t)*int64(s.n) })
	}
	return s.families[t], s.atLarge[at(t):at(t+1)], nil
}

// pull is a later batch: the large machine sends every small machine a
// one-word "next batch" (one round), and the sketches of the next 1, 2,
// 4, … families are gathered (one round), P in all at most. With the first
// batch at ⌈log2 n⌉ and P = ⌈log2(n+2)⌉ + 8, at most 4 later batches run.
func (s *sketchBatches) pull() error {
	defer s.c.Span("sketch").End()
	hi := min(len(s.families)+s.next, s.phases)
	s.next *= 2
	if _, err := prims.BroadcastValue(s.c, hi, 1); err != nil {
		return err
	}
	return s.gather(hi)
}

// gather builds families len(s.families) … hi−1 and ships them: each
// machine builds the sketches of its run's vertices — each the sum of the
// partial sketches of any edge partition, cell for cell, as a sketch is
// linear — and sends them to the large machine, keyed phase·n + vertex,
// each charged the levels it stores. The batch's keys are all above the
// earlier batches', so the large machine's sketches stay in key order.
func (s *sketchBatches) gather(hi int) error {
	lo := len(s.families)
	// One edge updater per family: precomputed fingerprint power tables.
	// Updaters are read-only and shared across the small-machine goroutines.
	updaters := make([]*sketch.EdgeUpdater, hi-lo)
	for t := range updaters {
		f := sketch.NewFamilyLevels(s.levels, xrand.Split(s.seed, uint64(lo+t)+1))
		s.families = append(s.families, f)
		updaters[t] = f.NewEdgeUpdater(s.n)
	}
	items := make([][]prims.KV[*sketch.Sketch], s.c.K())
	s.c.Each(func(i int) {
		items[i] = vertexSketches(updaters, s.runs[i], lo, s.n)
	})
	batch, err := prims.GatherKVs(s.c, items, (*sketch.Sketch).Words)
	if err != nil {
		return err
	}
	s.atLarge = append(s.atLarge, batch...)
	return nil
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
// sorted by vertex, updater t's keyed (first+t)·n + vertex.
func vertexSketches(updaters []*sketch.EdgeUpdater, run []sketch.Incidence, first, n int) []prims.KV[*sketch.Sketch] {
	sks := sketch.VertexSketches(updaters, run)
	items := make([]prims.KV[*sketch.Sketch], 0, len(sks))
	for j, in := range run {
		if j == 0 || in.V != run[j-1].V {
			for t := range updaters {
				items = append(items, prims.KV[*sketch.Sketch]{K: int64(first+t)*int64(n) + int64(in.V), V: &sks[len(items)]})
			}
		}
	}
	return items
}

// componentSums fills sums[r] with the sum of the vertex sketches of run,
// keyed base+v by vertex, over the members v of the component rooted at r
// under dsu, and with nil where no member has a sketch (isolated vertices
// have none). Members are added in increasing order into a full-width sketch
// of f, so no merge grows its destination and run is left untouched.
func componentSums(sums []*sketch.Sketch, f *sketch.Family, universe int64, dsu *unionfind.DSU, run []prims.KV[*sketch.Sketch], base int64) error {
	clear(sums)
	for _, kv := range run {
		r := dsu.Find(int(kv.K - base))
		if sums[r] == nil {
			sums[r] = f.NewSketch(universe)
		}
		if err := sums[r].Merge(kv.V); err != nil {
			return err
		}
	}
	return nil
}

// MSTApproxResult is the output of the (1+ε)-MST-weight approximation.
type MSTApproxResult struct {
	Estimate   int64
	Thresholds int
	Stats      mpc.Stats
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
	defer func() { res.Stats = sp.End().Model() }()
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
