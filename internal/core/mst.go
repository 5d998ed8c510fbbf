package core

import (
	"fmt"
	"math"
	"slices"

	"hetmpc/internal/graph"
	"hetmpc/internal/labeling"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/unionfind"
)

// MSTResult is the output of the §3 MST algorithm.
type MSTResult struct {
	Edges         []graph.Edge // the minimum spanning forest of the input
	Weight        int64
	BoruvkaPhases int // doubly-exponential Borůvka phases executed
	SampleTries   int // KKT sampling attempts until success
	Stats         mpc.Stats
}

// MSTOptions tunes the §3 algorithm for the ablation study (experiment
// E16). The zero value is the paper's algorithm.
type MSTOptions struct {
	// FixedBudget > 0 pins every phase's per-vertex edge budget (2 turns
	// the first part into plain Borůvka); 0 uses the doubly-exponential
	// schedule n^{f·2^i}.
	FixedBudget int
	// DisableSampling skips the KKT sampling step and runs the contraction
	// to completion instead.
	DisableSampling bool
}

// MST computes a minimum spanning forest of g in the heterogeneous MPC
// model (§3, Theorem 3.1). With the default near-linear large machine
// (f = 0) it runs O(log log(m/n)) Borůvka phases of O(1) rounds each,
// followed by the O(1)-round KKT sampling step. With a superlinear large
// machine (cluster configured with F = f > 0) the phase budgets grow as
// n^{f·2^i}, giving O(log(log_n(m/n)/f)) phases.
func MST(c *mpc.Cluster, g *graph.Graph) (*MSTResult, error) {
	return MSTWithOptions(c, g, MSTOptions{})
}

// MSTWithOptions is MST with ablation knobs (see MSTOptions).
func MSTWithOptions(c *mpc.Cluster, g *graph.Graph, opts MSTOptions) (*MSTResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("MST")
	}
	sp := c.Span("mst")
	n := g.N
	m := len(g.Edges)
	res := &MSTResult{}
	defer func() { res.Stats = sp.End().Model() }()
	if m == 0 {
		return res, nil
	}

	placed, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	edges := toCEdges(placed)

	// Large-machine persistent state.
	dsu := unionfind.New(n)
	var mstEdges []graph.Edge

	// Effective exponent: f = 0 means the near-linear 2^{2^i} schedule
	// (equivalently f = 1/log2 n, as the paper notes).
	f := c.F()
	log2n := math.Log2(float64(n))
	effF := f
	if effF < 1/log2n {
		effF = 1 / log2n
	}
	// Borůvka target: contract until at most n^{2(1+f)}/(4m) active vertices
	// remain (n²/(4m) in the near-linear case), so that the KKT sample and
	// the F-light edges fit the large machine.
	nf := math.Pow(float64(n), 1+f)
	target := int(nf * nf / (4 * float64(m)))
	if target < 1 {
		target = 1
	}
	maxPhases := 2*int(math.Ceil(math.Log2(log2n+2))) + 8
	if opts.FixedBudget > 0 || opts.DisableSampling {
		// Ablated schedules may legitimately need Θ(log n) phases.
		maxPhases = 2*int(math.Ceil(log2n)) + 12
	}

	for phase := 0; ; phase++ {
		// One doubly-exponential Borůvka contraction: everything through
		// the relabel dissemination is the "contract" phase of the trace.
		csp := c.Span("contract")
		arr, err := arrangeArcs(c, edges)
		if err != nil {
			//hetlint:span error path: the run aborts and no Stats or trace records are consumed from the leaked contract span
			return nil, err
		}
		active := len(arr.Keys)
		if active == 0 || (!opts.DisableSampling && active <= target) {
			csp.End()
			break
		}
		if phase >= maxPhases {
			csp.End()
			break // safety valve; the sampling step still finishes correctly
		}
		res.BoruvkaPhases++

		// Phase budget d_i = n^{effF·2^i}, capacity-capped.
		budget := phaseBudget(effF, log2n, phase, active, c.LargeCap())
		if opts.FixedBudget > 0 {
			budget = opts.FixedBudget
		}

		// Collect each active vertex's min(budget, deg) lightest out-edges.
		collected, err := collectEdges(c, arr, budget, dsu)
		if err != nil {
			return nil, err
		}

		// Local budgeted Borůvka merging on the large machine (the safe
		// active/inactive rule of Lotker et al. [45]; see DESIGN.md §3.5).
		relabel := localBudgetedBoruvka(dsu, arr, collected, budget, &mstEdges)

		// Disseminate the relabel map c'_i (Claim 3) and relabel locally.
		needs, slots := prims.DistinctSlots(prims.Endpoints(edges))
		relabeled, err := prims.DisseminateFromLarge(c, needs, relabel, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out := edges[i][:0]
			for j, e := range edges[i] {
				if nu, ok := relabeled.Slot(i, int(slots[i][2*j])); ok {
					e.U = int(nu)
				}
				if nv, ok := relabeled.Slot(i, int(slots[i][2*j+1])); ok {
					e.V = int(nv)
				}
				if e.U != e.V {
					out = append(out, e)
				}
			}
			edges[i] = out
		})

		// Keep only the lightest edge between any two contracted vertices
		// (Claim 2 variant, as in the paper).
		var dedupErr error
		edges, dedupErr = dedupParallel(c, edges, n)
		if dedupErr != nil {
			return nil, dedupErr
		}
		csp.End()
	}

	// --- KKT sampling part ---
	ksp := c.Span("sample")
	defer ksp.End()
	mRemaining := prims.CountItems(edges)
	tries := 0
	if mRemaining > 0 {
		p := nf / (2 * float64(m))
		if p > 1 {
			p = 1
		}
		maxTries := 2*int(math.Ceil(math.Log2(float64(n)+2))) + 4
		capBudget := int64(c.LargeCap() / (2 * cEdgeWords))
		done := false
		for tries = 1; tries <= maxTries && !done; tries++ {
			finalEdges, ok, err := kktTry(c, edges, n, p, capBudget, dsu)
			if err != nil {
				return nil, err
			}
			if ok {
				mstEdges = append(mstEdges, finalEdges...)
				done = true
			}
		}
		tries--
		if !done {
			return nil, fmt.Errorf("core: KKT sampling failed %d times: %w", maxTries, ErrRetriesExhausted)
		}
	}
	res.SampleTries = tries

	slices.SortFunc(mstEdges, graph.Edge.Compare)
	res.Edges = mstEdges
	for _, e := range mstEdges {
		res.Weight += e.W
	}
	return res, nil
}

// phaseBudget returns d_i = n^{effF·2^i}, clamped to [2, capacity bound].
func phaseBudget(effF, log2n float64, phase, active, largeCap int) int {
	exp := effF * math.Pow(2, float64(phase)) * log2n // bits
	var d int
	if exp >= 40 {
		d = 1 << 40
	} else {
		d = int(math.Pow(2, exp))
	}
	if d < 2 {
		d = 2
	}
	capD := largeCap / (4 * cEdgeWords * max(1, active))
	if capD < 2 {
		capD = 2
	}
	if d > capD {
		d = capD
	}
	return d
}

// arc is a directed copy of a contracted edge as the contraction arranges
// it: its source U and its original edge (W, OU, OV), arcWords. The head is
// not carried: nothing reads it before the large machine rebuilds it from
// its union-find (reply).
type arc struct {
	U      int
	W      int64
	OU, OV int
}

// arcWords is what an arc costs in Arrange's Sort, on the wire and held.
const arcWords = 4

// arcKey arranges arcs by (source, weight), the original edge breaking ties.
func arcKey(a arc) prims.SortKey {
	return prims.SortKey{A: int64(a.U), B: a.W, C: int64(a.OU)<<32 | int64(a.OV)}
}

// shipped is what a collected arc sends the large machine, prims.EdgeWords:
// its original edge (OU, OV, W).
func (a arc) shipped() graph.Edge { return graph.Edge{U: a.OU, V: a.OV, W: a.W} }

// arrangeArcs arranges both directed copies of every contracted edge by
// (source, weight) — Claim 4.
func arrangeArcs(c *mpc.Cluster, edges [][]cEdge) (*prims.Arranged[arc], error) {
	directed := make([][]arc, c.K())
	c.Each(func(i int) {
		directed[i] = make([]arc, 0, 2*len(edges[i]))
		for _, e := range edges[i] {
			directed[i] = append(directed[i],
				arc{U: e.U, W: e.W, OU: e.OU, OV: e.OV},
				arc{U: e.V, W: e.W, OU: e.OU, OV: e.OV})
		}
	})
	return prims.Arrange(c, directed, arcKey, arcWords)
}

// contracted rebuilds a contracted edge from its shipped original edge e.
// Relabeling makes every contracted id the root under dsu of its original
// endpoint, and a held edge keeps U on OU's side, so (U, V) is
// (dsu.Find(OU), dsu.Find(OV)).
func contracted(dsu *unionfind.DSU, e graph.Edge) cEdge {
	return cEdge{U: dsu.Find(e.U), V: dsu.Find(e.V), W: e.W, OU: e.U, OV: e.V}
}

// reply rebuilds a directed contracted edge that arrived under key u, its
// source: its head is the root of whichever original endpoint is not u's.
func reply(dsu *unionfind.DSU, u int, e graph.Edge) cEdge {
	v := dsu.Find(e.U)
	if v == u {
		v = dsu.Find(e.V)
	}
	return cEdge{U: u, V: v, W: e.W, OU: e.U, OV: e.V}
}

// collectEdges is the phase's collection: each active vertex's min(budget,
// deg) lightest out-edges, shipped as their original edges and rebuilt on
// the large machine, by position in arr.Keys, carved from one array.
func collectEdges(c *mpc.Cluster, arr *prims.Arranged[arc], budget int, dsu *unionfind.DSU) ([][]cEdge, error) {
	got, err := prims.CollectBudget(c, arr, func(int) int { return budget }, arc.shipped, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, es := range got {
		total += len(es)
	}
	flat, out := make([]cEdge, 0, total), make([][]cEdge, len(got))
	for p, es := range got {
		at := len(flat)
		for _, e := range es {
			flat = append(flat, reply(dsu, int(arr.Keys[p]), e))
		}
		out[p] = flat[at:len(flat):len(flat)]
	}
	rebuilt("mst/reply", arr, out)
	return out, nil
}

// gatherEdges ships every machine's contracted edges to the large machine as
// their original edges and rebuilds them there, in (machine, local index)
// order.
func gatherEdges(c *mpc.Cluster, site string, data [][]cEdge, dsu *unionfind.DSU) ([]cEdge, error) {
	got, err := gatherShipped(c, data, cEdge.shipped, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	out := make([]cEdge, len(got))
	for j, e := range got {
		out[j] = contracted(dsu, e)
	}
	rebuilt(site, data, out)
	return out, nil
}

// localBudgetedBoruvka merges contracted vertices along collected edges on
// the large machine, with the budget rule: a supercluster may select its
// minimum outgoing candidate only while no member's truncated list is
// exhausted (see DESIGN.md substitution 5 for why plain Kruskal on the
// collected edges is not sound). It mutates dsu, appends the used original
// edges to mstEdges and returns the relabel list phase-vertex → new root, by
// phase-vertex.
func localBudgetedBoruvka(
	dsu *unionfind.DSU,
	arr *prims.Arranged[arc],
	collected [][]cEdge,
	budget int,
	mstEdges *[]graph.Edge,
) []prims.KV[int64] {
	type vlist struct {
		v        int
		edges    []cEdge // sorted by weight
		ptr      int
		complete bool // list covers all of v's out-edges
	}
	verts := make([]vlist, len(arr.Keys))
	for p, key := range arr.Keys {
		verts[p] = vlist{v: int(key), edges: collected[p], complete: arr.Degree(p) <= budget}
	}
	// Supercluster membership: members[root] lists the positions in verts
	// of root's members; it is empty for every vertex that is not a root.
	members := make([][]int, dsu.Len())
	for p := range verts {
		r := dsu.Find(verts[p].v)
		members[r] = append(members[r], p)
	}

	var cands []cEdge
	for {
		// For each supercluster, find the minimum non-internal candidate,
		// honoring the budget rule.
		cands = cands[:0]
		for root, mem := range members {
			if len(mem) == 0 {
				continue
			}
			var best cEdge
			ok, blocked := false, false
			for _, p := range mem {
				vl := &verts[p]
				// Advance past internal edges.
				for vl.ptr < len(vl.edges) && dsu.Find(vl.edges[vl.ptr].V) == root {
					vl.ptr++
				}
				if vl.ptr >= len(vl.edges) {
					if !vl.complete {
						blocked = true // truncated list exhausted: unsafe
						break
					}
					continue // v truly has no outgoing edges left
				}
				e := vl.edges[vl.ptr]
				if !ok || e.lessByWeight(best) {
					best, ok = e, true
				}
			}
			if !blocked && ok {
				cands = append(cands, best)
			}
		}
		if len(cands) == 0 {
			break
		}
		// Merge along all candidates, in ascending root order (each is the
		// true minimum outgoing edge of its cluster, hence an MST edge by
		// the cut property).
		merged := false
		for _, e := range cands {
			ru, rv := dsu.Find(e.U), dsu.Find(e.V)
			if ru == rv {
				continue // the other side already merged into us this round
			}
			dsu.Union(ru, rv)
			nr := dsu.Find(ru)
			// Merge membership lists.
			if nr != ru {
				members[nr] = append(members[nr], members[ru]...)
				members[ru] = nil
			}
			if nr != rv {
				members[nr] = append(members[nr], members[rv]...)
				members[rv] = nil
			}
			*mstEdges = append(*mstEdges, e.orig())
			merged = true
		}
		if !merged {
			break
		}
	}

	relabel := make([]prims.KV[int64], len(verts))
	for x, vl := range verts {
		relabel[x] = prims.KV[int64]{K: int64(vl.v), V: int64(dsu.Find(vl.v))}
	}
	return relabel
}

// pairEdge is what dedupParallel ships of a contracted edge under its pair
// key, pairEdgeWords: its original edge (OU, OV, W) and Flip, whether U is
// the larger of the pair, a bit packed into OU's word (OU < n < 2³¹). The
// root rebuilds (U, V) from the key and the bit (edge), so U stays on OU's
// side, as contracted rebuilds it.
type pairEdge struct {
	Orig graph.Edge
	Flip bool
}

// pairEdgeWords is what a pairEdge costs in AggregateByKey's Sort, beside
// its key, on the wire and held.
const pairEdgeWords = 3

// edge rebuilds the contracted edge p stands for under key, its pairKey.
func (p pairEdge) edge(key int64, n int) cEdge {
	u, v := int(key/int64(n)), int(key%int64(n))
	if p.Flip {
		u, v = v, u
	}
	return cEdge{U: u, V: v, W: p.Orig.W, OU: p.Orig.U, OV: p.Orig.V}
}

// dedupParallel keeps only the lightest contracted edge between any pair of
// contracted vertices, using Claim 2 aggregation with min-combine; the
// deduplicated edges remain distributed (at the aggregation roots).
func dedupParallel(c *mpc.Cluster, edges [][]cEdge, n int) ([][]cEdge, error) {
	items := make([][]prims.KV[pairEdge], c.K())
	c.Each(func(i int) {
		items[i] = make([]prims.KV[pairEdge], 0, len(edges[i]))
		for _, e := range edges[i] {
			v := pairEdge{Orig: e.shipped(), Flip: e.U > e.V}
			items[i] = append(items[i], prims.KV[pairEdge]{K: pairKey(e.U, e.V, n), V: v})
		}
	})
	roots, err := prims.AggregateByKey(c, items, pairEdgeWords,
		func(a, b pairEdge) pairEdge {
			if a.Orig.Compare(b.Orig) < 0 {
				return a
			}
			return b
		})
	if err != nil {
		return nil, err
	}
	out := make([][]cEdge, c.K())
	c.Each(func(i int) {
		out[i] = make([]cEdge, 0, len(roots[i]))
		for _, root := range roots[i] {
			out[i] = append(out[i], root.V.edge(root.K, n))
		}
	})
	return out, nil
}

// forestLabels returns the labels of the vertices with an edge in forest,
// one a vertex, by vertex, and the largest one's words. A vertex with none is a singleton
// tree of F, in a different tree from every other endpoint, so an edge at it
// is F-light with or without its label: leaving it out changes no answer,
// and every label sent is requested, by the machine that sampled its forest
// edge (a large value nobody requests still ships, DESIGN.md §1). The filter
// reads the edges, not len(label) == 1: a level-0 centroid of a non-trivial
// tree has a 1-entry label too.
func forestLabels(labels labeling.Labels, forest []graph.Edge) ([]prims.KV[labeling.Label], int) {
	values := make([]prims.KV[labeling.Label], 0, 2*len(forest))
	lwords := 1
	for _, e := range forest {
		for _, v := range [2]int{e.U, e.V} {
			values = append(values, prims.KV[labeling.Label]{K: int64(v), V: labels[v]})
			lwords = max(lwords, labels[v].Words())
		}
	}
	prims.SortKVsByKey(values)
	// Forest edges share endpoints; a vertex's entries carry the same label.
	return slices.CompactFunc(values, func(a, b prims.KV[labeling.Label]) bool { return a.K == b.K }), lwords
}

// kktTry performs one iteration of the §3 sampling step: sample each stored
// edge with probability p, build the sampled MSF F on the large machine,
// disseminate the flow labels, count the F-light edges, and — if they fit —
// ship them and finish the MSF of the contracted graph. Returns the original
// edges completing the MST and ok=false if the try must be repeated.
func kktTry(
	c *mpc.Cluster,
	edges [][]cEdge,
	n int,
	p float64,
	capBudget int64,
	dsu *unionfind.DSU,
) ([]graph.Edge, bool, error) {
	k := c.K()
	// Sample locally with private randomness.
	samples := make([][]cEdge, k)
	c.Each(func(i int) {
		rng := c.Rand(i)
		for _, e := range edges[i] {
			if rng.Float64() < p {
				samples[i] = append(samples[i], e)
			}
		}
	})
	// Guard the gather volume, then ship the sample.
	counts := make([]int64, k)
	for i := range samples {
		counts[i] = int64(len(samples[i]))
	}
	total, err := prims.SumToLarge(c, counts)
	if err != nil {
		return nil, false, err
	}
	if total > capBudget {
		return nil, false, nil // resample
	}
	sampleEdges, err := gatherEdges(c, "mst/sample", samples, dsu)
	if err != nil {
		return nil, false, err
	}

	// Large machine: MSF F of the sample, under unique-weight order.
	slices.SortFunc(sampleEdges, cEdge.cmpByWeight)
	fdsu := unionfind.New(n)
	var forest []graph.Edge // on contracted ids, weights kept unique via W
	for _, e := range sampleEdges {
		if fdsu.Union(e.U, e.V) {
			forest = append(forest, graph.Edge{U: e.U, V: e.V, W: e.W})
		}
	}
	// Disseminate the labels of F's vertices to every machine holding an
	// edge of one (Claim 3).
	needs, slots := prims.DistinctSlots(prims.Endpoints(edges))
	values, lwords := forestLabels(labeling.Build(n, forest), forest)
	fLabels, err := prims.DisseminateFromLarge(c, needs, values, lwords)
	if err != nil {
		return nil, false, err
	}

	// Identify and count the F-light edges.
	light := make([][]cEdge, k)
	c.Each(func(i int) {
		for j, e := range edges[i] {
			lu, okU := fLabels.Slot(i, int(slots[i][2*j]))
			lv, okV := fLabels.Slot(i, int(slots[i][2*j+1]))
			if !okU || !okV {
				// An endpoint with no label is a singleton of F: F-light.
				light[i] = append(light[i], e)
				continue
			}
			// Compare under the unique (W, OU, OV) order embedded in labels
			// via the contracted-edge weights.
			if labeling.FLight(graph.Edge{U: e.U, V: e.V, W: e.W}, lu, lv) {
				light[i] = append(light[i], e)
			}
		}
	})
	lightCounts := make([]int64, k)
	for i := range light {
		lightCounts[i] = int64(len(light[i]))
	}
	lightTotal, err := prims.SumToLarge(c, lightCounts)
	if err != nil {
		return nil, false, err
	}
	if lightTotal > capBudget {
		return nil, false, nil // unlucky sample: retry
	}
	lightEdges, err := gatherEdges(c, "mst/light", light, dsu)
	if err != nil {
		return nil, false, err
	}

	// Finish: MSF over the F-light edges (which contain all remaining MSF
	// edges of the contracted graph), continuing the global contraction DSU.
	slices.SortFunc(lightEdges, cEdge.cmpByWeight)
	var out []graph.Edge
	for _, e := range lightEdges {
		if dsu.Union(e.U, e.V) {
			out = append(out, e.orig())
		}
	}
	return out, true, nil
}
