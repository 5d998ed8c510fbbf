package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	Stats         Stats
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
	defer func() { res.Stats = statsOf(sp.End()) }()
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

	dirSortKey := func(e cEdge) prims.SortKey {
		return prims.SortKey{A: int64(e.U), B: e.W, C: int64(e.OU)<<32 | int64(e.OV)}
	}

	for phase := 0; ; phase++ {
		// One doubly-exponential Borůvka contraction: everything through
		// the relabel dissemination is the "contract" phase of the trace.
		csp := c.Span("contract")
		// Build directed copies and arrange by (source, weight) — Claim 4.
		directed := make([][]cEdge, c.K())
		c.Each(func(i int) {
			directed[i] = make([]cEdge, 0, 2*len(edges[i]))
			for _, e := range edges[i] {
				directed[i] = append(directed[i], e)
				directed[i] = append(directed[i], cEdge{U: e.V, V: e.U, W: e.W, OU: e.OU, OV: e.OV})
			}
		})
		arr, err := prims.Arrange(c, directed, dirSortKey, cEdgeWords)
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
		collected, err := arr.CollectBudget(c, func(int64) int { return budget })
		if err != nil {
			return nil, err
		}

		// Local budgeted Borůvka merging on the large machine (the safe
		// active/inactive rule of Lotker et al. [45]; see DESIGN.md §3.5).
		relabel := localBudgetedBoruvka(dsu, arr, collected, budget, &mstEdges)

		// Disseminate the relabel map c'_i (Claim 3) and relabel locally.
		needs := make([][]int64, c.K())
		c.Each(func(i int) {
			needs[i] = distinctEndpoints(edges[i])
		})
		maps, err := prims.DisseminateFromLarge(c, needs, relabel, 1)
		if err != nil {
			return nil, err
		}
		c.Each(func(i int) {
			out := edges[i][:0]
			for _, e := range edges[i] {
				if nu, ok := maps[i][int64(e.U)]; ok {
					e.U = int(nu)
				}
				if nv, ok := maps[i][int64(e.V)]; ok {
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
			return nil, fmt.Errorf("core: KKT sampling failed %d times", maxTries)
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

// localBudgetedBoruvka merges contracted vertices along collected edges on
// the large machine, with the budget rule: a supercluster may select its
// minimum outgoing candidate only while no member's truncated list is
// exhausted (see DESIGN.md substitution 5 for why plain Kruskal on the
// collected edges is not sound). It mutates dsu, appends the used original
// edges to mstEdges and returns the relabel map phase-vertex → new root.
func localBudgetedBoruvka(
	dsu *unionfind.DSU,
	arr *prims.Arranged[cEdge],
	collected map[int64][]cEdge,
	budget int,
	mstEdges *[]graph.Edge,
) map[int64]int64 {
	type vlist struct {
		v        int
		edges    []cEdge // sorted by weight
		ptr      int
		complete bool // list covers all of v's out-edges
	}
	verts := make([]*vlist, 0, len(arr.Keys))
	byV := make(map[int]*vlist, len(arr.Keys))
	for _, key := range arr.Keys {
		v := int(key)
		deg := arr.Degree(key)
		lst := &vlist{v: v, edges: collected[key], complete: deg <= budget}
		verts = append(verts, lst)
		byV[v] = lst
	}
	// Supercluster membership: root → member phase-vertices.
	members := make(map[int][]int, len(verts))
	for _, vl := range verts {
		members[dsu.Find(vl.v)] = append(members[dsu.Find(vl.v)], vl.v)
	}

	for {
		// For each supercluster, find the minimum non-internal candidate,
		// honoring the budget rule.
		type cand struct {
			edge cEdge
			ok   bool
		}
		cands := make(map[int]cand, len(members))
		for root, mem := range members {
			best := cand{}
			blocked := false
			for _, v := range mem {
				vl := byV[v]
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
				if !best.ok || e.lessByWeight(best.edge) {
					best = cand{edge: e, ok: true}
				}
			}
			if !blocked && best.ok {
				cands[root] = best
			}
		}
		if len(cands) == 0 {
			break
		}
		// Merge along all candidates (each is the true minimum outgoing edge
		// of its cluster, hence an MST edge by the cut property).
		merged := false
		// Deterministic iteration order.
		roots := make([]int, 0, len(cands))
		for r := range cands {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			e := cands[r].edge
			ru, rv := dsu.Find(e.U), dsu.Find(e.V)
			if ru == rv {
				continue // the other side already merged into us this round
			}
			dsu.Union(ru, rv)
			nr := dsu.Find(ru)
			// Merge membership lists.
			if nr != ru {
				members[nr] = append(members[nr], members[ru]...)
				delete(members, ru)
			}
			if nr != rv {
				members[nr] = append(members[nr], members[rv]...)
				delete(members, rv)
			}
			*mstEdges = append(*mstEdges, e.orig())
			merged = true
		}
		if !merged {
			break
		}
	}

	relabel := make(map[int64]int64, len(verts))
	for _, vl := range verts {
		relabel[int64(vl.v)] = int64(dsu.Find(vl.v))
	}
	return relabel
}

// dedupParallel keeps only the lightest contracted edge between any pair of
// contracted vertices, using Claim 2 aggregation with min-combine; the
// deduplicated edges remain distributed (at the aggregation roots).
func dedupParallel(c *mpc.Cluster, edges [][]cEdge, n int) ([][]cEdge, error) {
	items := make([][]prims.KV[cEdge], c.K())
	c.Each(func(i int) {
		items[i] = make([]prims.KV[cEdge], 0, len(edges[i]))
		for _, e := range edges[i] {
			items[i] = append(items[i], prims.KV[cEdge]{K: pairKey(e.U, e.V, n), V: e})
		}
	})
	roots, _, err := prims.AggregateByKey(c, items, cEdgeWords,
		func(a, b cEdge) cEdge {
			if a.lessByWeight(b) {
				return a
			}
			return b
		}, false)
	if err != nil {
		return nil, err
	}
	out := make([][]cEdge, c.K())
	c.Each(func(i int) {
		out[i] = make([]cEdge, 0, len(roots[i]))
		for _, root := range roots[i] {
			out[i] = append(out[i], root.V)
		}
	})
	return out, nil
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
	sampleEdges, err := prims.GatherToLarge(c, samples, cEdgeWords)
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
	labels := labeling.Build(n, forest)

	// Disseminate labels to every machine holding an edge of v (Claim 3).
	needs := make([][]int64, k)
	c.Each(func(i int) {
		needs[i] = distinctEndpoints(edges[i])
	})
	values := make(map[int64]labeling.Label, len(labels))
	lwords := 1
	for v, l := range labels {
		if len(l) == 0 {
			continue
		}
		values[int64(v)] = l
		if l.Words() > lwords {
			lwords = l.Words()
		}
	}
	maps, err := prims.DisseminateFromLarge(c, needs, values, lwords)
	if err != nil {
		return nil, false, err
	}

	// Identify and count the F-light edges.
	light := make([][]cEdge, k)
	c.Each(func(i int) {
		for _, e := range edges[i] {
			lu, okU := maps[i][int64(e.U)]
			lv, okV := maps[i][int64(e.V)]
			if !okU || !okV {
				// Endpoint absent from F's labeling: treat as F-light.
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
	lightEdges, err := prims.GatherToLarge(c, light, cEdgeWords)
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
