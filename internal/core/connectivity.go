package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// (Theorem C.1): the small machines sort the edge incidences by vertex and,
// where a vertex's incidences meet, price its linear ℓ0-sampling sketches.
// Each vertex then ships the large machine whichever of two records costs
// fewer words: its sketches, each charged the levels it stores
// (Sketch.Words: the levels above are zero by construction), with its id
// once (shareWords), or its incidences, which the large machine holds —
// O(n polylog n) words in total either way. The large machine then runs
// Borůvka locally, sampling an outgoing edge of each component from its sum
// (Property 1) of a fresh family each phase: its members' shipped sketches
// plus the updates of the incidences it holds of them (componentSums). The
// first contractAfter families are gathered per vertex; if Borůvka reads a
// later one, the large machine contracts the components the first phases
// left, and the vertices that shipped sketches ship the later families
// once per component share (sketchPhase.contract). A run whose samplers
// fail in every phase returns an error wrapping ErrSketchFailure.
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
	if res.Phases, err = boruvka(sk.dsu, sk.phases, sk.sum); err != nil {
		return nil, err
	}

	// Labels: smallest member id per component (computed on the large
	// machine, where the output resides). Descending, the last write to a
	// root is its smallest member.
	dsu, smallest := sk.dsu, make([]int, n)
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
// joining the components of dsu, sum(t, sums) filling sums with family t's
// sum over each component, at its root under dsu, and returning family t:
// phase t joins each component along the edge its sum samples, until every
// sum is zero. It returns the phases run, or an error wrapping
// ErrSketchFailure if a sum is still nonzero after the last family's phase.
func boruvka(dsu *unionfind.DSU, phases int, sum func(t int, sums []*sketch.Sketch) (*sketch.Family, error)) (int, error) {
	n := dsu.Len()
	sums := make([]*sketch.Sketch, n)
	last := phases - 1
	// One pass past the last phase re-sums the last family over the final
	// components, to verify that none has an edge leaving it.
	for t := 0; ; t++ {
		f, err := sum(min(t, last), sums)
		if err != nil {
			return 0, err
		}
		done := true
		for _, s := range sums { // ascending root order
			if s == nil || s.IsZero() {
				continue
			}
			if t > last {
				return 0, fmt.Errorf("core: connectivity: a component still has an outgoing edge after %d phases: %w", phases, ErrSketchFailure)
			}
			done = false
			if idx, _, ok := f.Query(s); ok { // a sampler failure retries next phase
				dsu.Union(sketch.DecodeEdgeKey(idx, n))
			}
		}
		if done {
			return min(t+1, phases), nil
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

// contractAfter is how many Borůvka phases read per-vertex sketches: the
// first gather ships families 0…contractAfter−1 of every vertex that ships
// sketches, and the later families are built once per share of a component
// those phases leave.
// DESIGN.md §3.4 tables the words for contracting after 1…4 phases.
const contractAfter = 3

// sketchPhase is the sketch phase from the Sort on, driven by the large
// machine's Borůvka. The small machines keep the incidence runs of their
// vertices that shipped sketches, sorted by vertex; the large machine holds
// dsu, Borůvka's components, every gathered family's sketches, keyed
// phase·n + group — phase by phase, each phase's by group — and the
// incidences the other vertices shipped. Family t is seeded
// xrand.Split(seed, t+1).
type sketchPhase struct {
	c         *mpc.Cluster
	runs      [][]sketch.Incidence // each machine's run of the groups that ship sketches
	dsu       *unionfind.DSU
	seed      uint64
	n, levels int
	phases    int                        // P: the families a run gathers at most
	families  []*sketch.Family           // the families gathered, in phase order
	updaters  []*sketch.EdgeUpdater      // an updater a family, shared by every machine
	atLarge   []prims.KV[*sketch.Sketch] // their sketches
	vertices  []share                    // the first gather's vertices that shipped sketches
	held      [][]sketch.Incidence       // the other vertices' incidences, a run a vertex
}

// A share is what a machine ships of one group of its run — a vertex before
// the contraction, its share of a component after: the group's sketch of
// each family the gather ships, keyed phase·n + group, and deg, the
// incidences the group holds. A vertex whose incidences cost fewer words
// than its sketches ships them instead, and the large machine adds their
// updates into Borůvka's sums itself. The machine rides uncharged: the
// message names its sender.
type share struct {
	group      int
	sketches   []prims.KV[*sketch.Sketch]
	incidences []sketch.Incidence // shipped instead of sketches; nil where the sketches ship
	deg        int
	machine    int
}

// shareWords is what a share's sketches cost on the wire: its group once,
// its sketches' Sketch.Words (sketchWords) and its degree's words
// (degWords). Its families arrive in order, so the large machine rebuilds
// each sketch's key phase·n + group, and from it the family id and
// universe that Sketch.Words leaves out. The first gather prices each
// vertex with it, bins prices the second, and gather charges it where a
// share ships its sketches.
func shareWords[W int | float64](sketchWords, degWords W) W { return 1 + sketchWords + degWords }

// words is what the share costs on the wire: its incidences as its group,
// its degree and its deg neighbours, 2 + deg, or its sketches' shareWords.
func (sh share) words(degWords int) int {
	if sh.incidences != nil {
		return 2 + sh.deg
	}
	sketchWords := 0
	for _, kv := range sh.sketches {
		sketchWords += kv.V.Words()
	}
	return shareWords(sketchWords, degWords)
}

// gatherSketches is the "sketch" phase up to its first gather: the
// incidences meet by vertex, and the sketches of the first contractAfter of
// the P families are gathered with each vertex's degree.
func gatherSketches(c *mpc.Cluster, edges [][]graph.Edge, seed uint64, n, m int) (*sketchPhase, error) {
	defer c.Span("sketch").End()
	runs, err := sortIncidences(c, edges)
	if err != nil {
		return nil, err
	}
	phases, levels := sketchShape(n, m)
	s := &sketchPhase{c: c, runs: runs, dsu: unionfind.New(n), seed: seed, n: n, levels: levels, phases: phases}
	return s, s.gatherVertices()
}

// gatherVertices is the first gather: families 0…contractAfter−1 of every
// vertex, one degree word a vertex beside them, or the vertex's incidences
// where they cost fewer words (one round).
func (s *sketchPhase) gatherVertices() (err error) {
	s.vertices, err = s.gather(s.runs, min(contractAfter, s.phases), 1)
	return err
}

// sum fills sums with family t's component sums under dsu, of the
// gathered sketches of family t and the held incidences' updates
// (componentSums), and returns family t. Borůvka reads the families in
// order, so the first family not yet gathered is contractAfter, which
// contracts.
func (s *sketchPhase) sum(t int, sums []*sketch.Sketch) (*sketch.Family, error) {
	if t >= len(s.families) {
		if err := s.contract(); err != nil {
			return nil, err
		}
	}
	// at is the first entry of phase t's sketches, or of a later phase's.
	at := func(t int) int {
		return sort.Search(len(s.atLarge), func(j int) bool { return s.atLarge[j].K >= int64(t)*int64(s.n) })
	}
	f := s.families[t]
	return f, componentSums(sums, f, s.updaters[t], s.dsu, s.atLarge[at(t):at(t+1)], s.held, int64(t)*int64(s.n))
}

// placement is what the large machine sends a machine in the contraction:
// the root of each vertex of its run, in run order, and the cuts that route
// the run, filed under the roots, to the machines the components are packed
// onto.
type placement struct {
	roots []int
	cuts  []prims.Cut
}

// byGroup sorts incidences by the sketch they update.
func byGroup(in sketch.Incidence) prims.SortKey { return prims.SortKey{A: int64(in.Group())} }

// contract is the rest of the sketch phase, run when Borůvka first reads
// family contractAfter. It carries the vertices that shipped sketches; the
// large machine already holds the others' incidences.
//
//  1. the large machine packs the vertices' incidences onto machines (pack)
//     and sends each machine its vertices' roots under dsu and the cuts of
//     its run (one scatter round, a word a root and 2 a cut);
//  2. every machine files its incidences under their vertices' roots and
//     routes them along the cuts (one round, 3 words an incidence); the
//     routed incidences are the machines' held state from here on;
//  3. the remaining families are gathered, a sketch per component share
//     (one round).
//
// The three rounds run whether or not a vertex shipped sketches, carrying
// nothing where none did. A component's sketch is the sum of its members'
// (Property 1) and the sum of its shares' is that sum cell for cell, so
// Borůvka's component sums — and with them every output — are what
// per-vertex sketches give.
func (s *sketchPhase) contract() error {
	defer s.c.Span("sketch").End()
	c, k := s.c, s.c.K()
	places := s.pack()
	items := make([][]placement, k)
	for i := range items {
		if len(places[i].roots) > 0 {
			items[i] = places[i : i+1 : i+1]
		}
	}
	round := c.Span("scatter")
	got, err := prims.Scatter(c, items, func(ps []placement) int { return len(ps[0].roots) + 2*len(ps[0].cuts) })
	round.End()
	if err != nil {
		return err
	}

	// The filed runs are one array.
	starts := make([]int, k+1)
	for i := range k {
		starts[i+1] = starts[i] + len(s.runs[i])
	}
	flat := make([]sketch.Incidence, starts[k])
	filed, cuts := make([][]sketch.Incidence, k), make([][]prims.Cut, k)
	c.Each(func(i int) {
		run := flat[starts[i]:starts[i+1]:starts[i+1]]
		if len(got[i]) > 0 {
			p, v := got[i][0], -1
			for x, in := range s.runs[i] {
				if x == 0 || in.V != s.runs[i][x-1].V {
					v++
				}
				run[x] = in.FiledUnder(p.roots[v])
			}
			prims.SortLocal(run, byGroup)
			cuts[i] = p.cuts
		}
		filed[i] = run
	})
	round = c.Span("route")
	routed, err := prims.Route(c, filed, cuts, 3, 0, byGroup)
	round.End()
	if err != nil {
		return err
	}
	c.HoldState(func(i int) int { return 3 * len(routed[i]) })

	_, err = s.gather(routed, s.phases, 0)
	return err
}

// pack is the large machine's half of the contraction's first step: the
// root under dsu of every vertex that shipped sketches, and a packing of
// their incidences in (root, vertex) order onto the bins, each taking its
// placement-weighted share of them as a Sort bucket does, so a component
// may straddle bins. It returns each machine's placement: the vertices
// arrived in machine order, each machine's in run order, so a machine's
// roots are one stretch, and its cuts follow its run filed under them.
func (s *sketchPhase) pack() []placement {
	c, k := s.c, s.c.K()
	roots, held := make([]int, len(s.vertices)), make([]int, k)
	total := 0
	for x, v := range s.vertices {
		roots[x] = s.dsu.Find(v.group)
		total += v.deg
		held[v.machine] += v.deg
	}
	places := make([]placement, k)
	for x := 0; x < len(s.vertices); {
		i, y := s.vertices[x].machine, x
		for y < len(s.vertices) && s.vertices[y].machine == i {
			y++
		}
		places[i].roots, x = roots[x:y:y], y
	}
	order := make([]int, len(s.vertices))
	for x := range order {
		order[x] = x
	}
	prims.SortLocal(order, func(x int) prims.SortKey { return prims.SortKey{A: int64(roots[x])*int64(len(order)) + int64(x)} })
	comps := 0
	for j, x := range order {
		if j == 0 || roots[x] != roots[order[j-1]] {
			comps++
		}
	}
	bins := s.bins(total, comps, held)
	ends := make([]int, len(bins)) // bin j packs positions [ends[j−1], ends[j])
	var sum, cum float64
	for _, i := range bins {
		sum += c.PlaceShare(i)
	}
	for j, i := range bins {
		cum += c.PlaceShare(i)
		ends[j] = int(float64(total) * cum / sum)
	}
	ends[len(ends)-1] = total
	j, pos := 0, 0
	for _, x := range order {
		v := s.vertices[x]
		p := &places[v.machine]
		for d := v.deg; d > 0; {
			for pos >= ends[j] {
				j++
			}
			take, bin := min(d, ends[j]-pos), int32(bins[j])
			if n := len(p.cuts); n > 0 && p.cuts[n-1].Bucket == bin {
				p.cuts[n-1].Count += int32(take)
			} else {
				p.cuts = append(p.cuts, prims.Cut{Bucket: bin, Count: int32(take)})
			}
			pos, d = pos+take, d-take
		}
	}
	return places
}

// bins returns the machines the contraction packs total incidences onto, in
// machine order: the B of largest PlaceShare (the first on ties), B the
// candidate of least estimated price (DESIGN.md §3.4). Packed by
// PlaceShare, bin j receives 3·total·s_j/S words in the route, s_j its
// share and S the bins', while every machine i sends its run, 3·held[i]; in
// the second gather bin j sends about comps·s_j/S + 1 component shares and
// the large machine receives comps + B − 1, each shareWords of F sketches
// of about w words, F the families left and w the mean Sketch.Words of the
// first gather's shipped sketches. A candidate prices each round at its
// busiest machine's words times WordCost, so more bins shorten the route
// and lengthen the gather where the large machine is the busiest, and
// shorten both where the bins are. A candidate whose route overfills half a
// bin's cap is not taken; all K bins are the fallback.
func (s *sketchPhase) bins(total, comps int, held []int) []int {
	c, k := s.c, s.c.K()
	sketches, words := 0, 0
	for _, v := range s.vertices {
		for _, kv := range v.sketches {
			sketches, words = sketches+1, words+kv.V.Words()
		}
	}
	share := shareWords(float64(s.phases-len(s.families))*float64(words)/float64(max(sketches, 1)), 0) // F sketches of w words
	machines := make([]int, k)
	var floor float64 // the route's busiest sender, bin or not
	for i := range machines {
		machines[i] = i
		floor = max(floor, c.WordCost(i)*float64(3*held[i]))
	}
	slices.SortStableFunc(machines, func(x, y int) int { return cmp.Compare(c.PlaceShare(y), c.PlaceShare(x)) })
	best, bins := math.Inf(1), k
	for b := 1; b <= k; b++ {
		var sum float64
		for _, i := range machines[:b] {
			sum += c.PlaceShare(i)
		}
		route, gather, fits := floor, c.WordCost(mpc.Large)*float64(comps+b-1)*share, true
		for _, i := range machines[:b] {
			part := c.PlaceShare(i) / sum
			in := 3 * float64(total) * part
			fits = fits && 2*in <= float64(c.SmallCapOf(i))
			route = max(route, c.WordCost(i)*(in+float64(3*held[i])))
			gather = max(gather, c.WordCost(i)*(float64(comps)*part+1)*share)
		}
		if fits && route+gather < best {
			best, bins = route+gather, b
		}
	}
	machines = machines[:bins]
	slices.Sort(machines)
	return machines
}

// gather builds families len(s.families) … hi−1 of every machine's run,
// sorted by group — a sketch per (family, group), each the sum of its
// group's updates, cell for cell in any order — and ships them to the large
// machine (one round), each group charged shareWords. In the first gather
// (degWords = 1, a group per vertex) a machine prices each vertex's
// sketches from the depths they would store (shipsIncidences), and a vertex
// whose incidences cost no more words (2 + deg) ships them instead: its
// machine builds no sketch of it and leaves it out of its run from here on
// (s.runs), and the large machine holds them (s.held). The large machine
// files the sketches after the families it holds, by family: the groups
// ascend in machine order, so every family's keys do. It returns the
// groups that shipped sketches, in machine order, each with its sketches.
func (s *sketchPhase) gather(runs [][]sketch.Incidence, hi, degWords int) ([]share, error) {
	defer s.c.Span("gather").End()
	lo := len(s.families)
	// One edge updater per family: precomputed fingerprint power tables.
	// Updaters are read-only and shared across the small-machine goroutines.
	for t := lo; t < hi; t++ {
		f := sketch.NewFamilyLevels(s.levels, xrand.Split(s.seed, uint64(t)+1))
		s.families, s.updaters = append(s.families, f), append(s.updaters, f.NewEdgeUpdater(s.n))
	}
	updaters := s.updaters[lo:hi]
	items, kept := make([][]share, s.c.K()), make([][]sketch.Incidence, s.c.K())
	s.c.Each(func(i int) {
		run, groups, dense := runs[i], 0, 0 // dense: the incidences of the groups that ship sketches
		for j, in := range run {
			if j == 0 || in.Group() != run[j-1].Group() {
				groups++
			}
		}
		shares := make([]share, 0, groups)
		for at := 0; at < len(run); {
			sh := share{group: run[at].Group(), machine: i}
			for at+sh.deg < len(run) && run[at+sh.deg].Group() == sh.group {
				sh.deg++
			}
			if end := at + sh.deg; degWords > 0 && shipsIncidences(updaters, run[at:end], s.levels, degWords) {
				sh.incidences = run[at:end:end]
			} else {
				dense += sh.deg
			}
			shares, at = append(shares, sh), at+sh.deg
		}
		kept[i] = run
		if dense < len(run) {
			kept[i] = make([]sketch.Incidence, 0, dense)
			at := 0
			for _, sh := range shares {
				if sh.incidences == nil {
					kept[i] = append(kept[i], run[at:at+sh.deg]...)
				}
				at += sh.deg
			}
		}
		sks, at := vertexSketches(updaters, kept[i], lo, s.n), 0
		for x := range shares {
			if shares[x].incidences == nil {
				shares[x].sketches, at = sks[at:at+len(updaters):at+len(updaters)], at+len(updaters)
			}
		}
		items[i] = shares
	})
	got, err := prims.Gather(s.c, items, func(shares []share) int {
		w := 0
		for _, sh := range shares {
			w += sh.words(degWords)
		}
		return w
	})
	if err != nil {
		return nil, err
	}
	s.runs = kept
	shipped := got[:0]
	for _, sh := range got {
		if sh.incidences != nil {
			s.held = append(s.held, sh.incidences)
		} else {
			shipped = append(shipped, sh)
		}
	}
	for t := range updaters {
		for _, sh := range shipped {
			s.atLarge = append(s.atLarge, sh.sketches[t])
		}
	}
	return shipped, nil
}

// shipsIncidences reports whether a vertex ships its incidences incs
// rather than its sketches of the updaters' families: whether 2 + deg
// words cost no more than the sketches' shareWords. Each sketch stores its
// deepest update's levels (sketch.VertexSketches), PrefixWords of them, at
// least one level and at most levels; a family's depth is read only while
// those bounds leave the choice open.
func shipsIncidences(updaters []*sketch.EdgeUpdater, incs []sketch.Incidence, levels, degWords int) bool {
	f := len(updaters)
	lo, hi := f*sketch.PrefixWords(1), f*sketch.PrefixWords(levels) // the sketches' words, bounded
	for _, up := range updaters {
		if 2+len(incs) <= shareWords(lo, degWords) || 2+len(incs) > shareWords(hi, degWords) {
			break
		}
		depth := 0
		for _, in := range incs {
			depth = max(depth, up.Depth(in))
		}
		lo += sketch.PrefixWords(depth) - sketch.PrefixWords(1)
		hi -= sketch.PrefixWords(levels) - sketch.PrefixWords(depth)
	}
	return 2+len(incs) <= shareWords(lo, degWords)
}

// sortIncidences sorts the two incidences of every machine's edges, 2 words
// each, by vertex alone (a one-column Sort): all of a vertex's land in one
// bucket. A self-loop has none, as its two updates would cancel.
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
	return prims.SortOneColumn(c, incs, 2, byGroup)
}

// vertexSketches is one small machine's sketches of its run of incidences
// sorted by group, updater t's keyed (first+t)·n + group.
func vertexSketches(updaters []*sketch.EdgeUpdater, run []sketch.Incidence, first, n int) []prims.KV[*sketch.Sketch] {
	sks := sketch.VertexSketches(updaters, run)
	items := make([]prims.KV[*sketch.Sketch], 0, len(sks))
	for j, in := range run {
		if g := in.Group(); j == 0 || g != run[j-1].Group() {
			for t := range updaters {
				items = append(items, prims.KV[*sketch.Sketch]{K: int64(first+t)*int64(n) + int64(g), V: &sks[len(items)]})
			}
		}
	}
	return items
}

// componentSums fills sums[r] with family f's sum over the component rooted
// at r under dsu: the sketches of run, keyed base+v by a member v of their
// group, and up's updates of held, each run the incidences of one member;
// nil where no member has either (isolated vertices have none). Each sum is
// a full-width sketch of f, so no merge or update grows it, and run is left
// untouched.
func componentSums(sums []*sketch.Sketch, f *sketch.Family, up *sketch.EdgeUpdater, dsu *unionfind.DSU, run []prims.KV[*sketch.Sketch], held [][]sketch.Incidence, base int64) error {
	clear(sums)
	universe := int64(dsu.Len()) * int64(dsu.Len())
	of := func(v int) *sketch.Sketch {
		r := dsu.Find(v)
		if sums[r] == nil {
			sums[r] = f.NewSketch(universe)
		}
		return sums[r]
	}
	for _, kv := range run {
		if err := of(int(kv.K - base)).Merge(kv.V); err != nil {
			return err
		}
	}
	for _, incs := range held {
		sum := of(incs[0].V)
		for _, in := range incs {
			up.AddIncidence(sum, in)
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
	maxW, err := maxEdgeWeight(c, g)
	if err != nil {
		return nil, err
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
