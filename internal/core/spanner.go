package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/prims"
	"hetmpc/internal/xrand"
)

// SpannerResult is the output of the §4 spanner algorithm.
type SpannerResult struct {
	Edges         []graph.Edge // the spanner H (original graph edges)
	Stretch       int          // guaranteed stretch: 6k-1 (12k-1 weighted)
	DirectLevels  int          // clustering graphs shipped whole to the large machine
	SampledLevels int          // clustering graphs spanned via modified Baswana-Sen
	Stats         Stats
}

// Spanner computes a (6k-1)-spanner of expected size O(n^{1+1/k}) for the
// unweighted graph g, in O(1) rounds (§4, Theorem 4.1): it builds the
// clustering graphs A_0..A_{logΔ-1} of [22] (Algorithm 5), spans each — the
// small ones directly on the large machine, the large ones via the modified
// Baswana-Sen algorithm with level-dependent sampling probabilities — and
// combines the pieces (Lemma A.2). All levels are batched through shared
// primitive invocations, so the round count is a constant independent of n,
// k and Δ.
func Spanner(c *mpc.Cluster, g *graph.Graph, k int) (*SpannerResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("Spanner")
	}
	sp := c.Span("spanner")
	if k < 1 {
		k = 1
	}
	res := &SpannerResult{Stretch: 6*k - 1}
	defer func() { res.Stats = statsOf(sp.End()) }()
	n := g.N
	if len(g.Edges) == 0 {
		return res, nil
	}
	edges, err := prims.DistributeEdges(c, g)
	if err != nil {
		return nil, err
	}
	kk := c.K()

	// Shared randomness for the σ-selection ranks.
	seed, err := prims.BroadcastSeed(c)
	if err != nil {
		return nil, err
	}
	rankHash := xrand.NewHash(seed, 4)

	// The plan of the stored edges' endpoints: every per-vertex aggregation
	// and dissemination below runs over it.
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts)
	if err != nil {
		return nil, err
	}

	// --- Step 1: degrees (Claim 2 + Claim 3) ---
	degAtLarge, err := degreesAtLarge(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	degs, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(degAtLarge), 1)
	if err != nil {
		return nil, err
	}
	maxDeg := int64(1)
	for _, d := range degAtLarge {
		if d > maxDeg {
			maxDeg = d
		}
	}
	levels := bits.Len64(uint64(maxDeg)) // classes [2^i, 2^{i+1}), i = 0..levels-1
	if levels < 1 {
		levels = 1
	}

	// --- Step 2: hitting-set trials (Algorithm 5 lines 1-7) ---
	trials := int(math.Ceil(math.Log2(float64(n) + 2)))
	bitWords := ((levels-1)*trials + 63) / 64
	if bitWords < 1 {
		bitWords = 1
	}
	type vbits struct{ B []uint64 }
	dBit := func(b []uint64, lvl, j int) bool {
		idx := (lvl-1)*trials + j
		return b[idx/64]&(1<<(idx%64)) != 0
	}
	setDBit := func(b []uint64, lvl, j int) {
		idx := (lvl-1)*trials + j
		b[idx/64] |= 1 << (idx % 64)
	}
	lrng := c.LargeRand()
	vertsWithEdges := make([]int64, 0, len(degAtLarge))
	for v := range degAtLarge {
		vertsWithEdges = append(vertsWithEdges, v)
	}
	slices.Sort(vertsWithEdges)
	dbits := make(map[int64]vbits, len(degAtLarge))
	for _, v := range vertsWithEdges {
		b := make([]uint64, bitWords)
		for lvl := 1; lvl < levels; lvl++ {
			p := float64(lvl) / math.Pow(2, float64(lvl))
			for j := 0; j < trials; j++ {
				if lrng.Float64() < p {
					setDBit(b, lvl, j)
				}
			}
		}
		dbits[v] = vbits{B: b}
	}
	dBits, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(dbits), bitWords)
	if err != nil {
		return nil, err
	}

	// --- Step 3: neighbor-OR aggregation (Algorithm 5 line 11) ---
	orItems := make([][]prims.KV[vbits], kk)
	c.Each(func(i int) {
		for j, e := range edges[i] {
			bu, _ := dBits.Slot(i, int(slots[i][2*j]))
			bv, _ := dBits.Slot(i, int(slots[i][2*j+1]))
			orItems[i] = append(orItems[i],
				prims.KV[vbits]{K: int64(e.U), V: bv},
				prims.KV[vbits]{K: int64(e.V), V: bu})
		}
	})
	orCombine := func(a, b vbits) vbits {
		out := make([]uint64, len(a.B))
		for x := range out {
			out[x] = a.B[x] | b.B[x]
		}
		return vbits{B: out}
	}
	orRoots, err := prims.PlanCombine(c, plan, orItems, bitWords, orCombine)
	if err != nil {
		return nil, err
	}
	orAtLarge, err := prims.GatherMap(c, orRoots, func(vbits) int { return bitWords })
	if err != nil {
		return nil, err
	}

	// Large machine: augment the trial sets, pick the smallest trial per
	// level (lines 13-16), and form B_i = ∪_{j>=i} D_j as per-vertex bitsets.
	sizes := make([][]int, levels) // [lvl][trial]
	for lvl := 1; lvl < levels; lvl++ {
		sizes[lvl] = make([]int, trials)
	}
	augmented := make(map[int64][]bool) // v → per (lvl,trial) augmented membership flattened
	for v, own := range dbits {
		deg := degAtLarge[v]
		cls := bits.Len64(uint64(deg)) - 1 // degree class
		or, hasOr := orAtLarge[v]
		mem := make([]bool, (levels-1)*trials)
		for lvl := 1; lvl < levels; lvl++ {
			for j := 0; j < trials; j++ {
				in := dBit(own.B, lvl, j)
				if !in && lvl <= cls {
					covered := hasOr && dBit(or.B, lvl, j)
					if !covered {
						in = true // u joins D_lvl^j (augmentation)
					}
				}
				if in {
					mem[(lvl-1)*trials+j] = true
					sizes[lvl][j]++
				}
			}
		}
		augmented[v] = mem
	}
	bestTrial := make([]int, levels)
	for lvl := 1; lvl < levels; lvl++ {
		best := 0
		for j := 1; j < trials; j++ {
			if sizes[lvl][j] < sizes[lvl][best] {
				best = j
			}
		}
		bestTrial[lvl] = best
	}
	type bset struct{ B uint64 }
	bbits := make(map[int64]bset, len(dbits))
	for v, mem := range augmented {
		var b uint64
		inAny := uint64(0)
		for lvl := levels - 1; lvl >= 1; lvl-- {
			if mem[(lvl-1)*trials+bestTrial[lvl]] {
				inAny |= 1 << lvl
			}
		}
		// B_i = union of D_j for j >= i (cumulative-down), plus B_0 = V.
		cum := uint64(0)
		for lvl := levels - 1; lvl >= 1; lvl-- {
			if inAny&(1<<lvl) != 0 {
				cum |= 1 << lvl
			}
			if cum&^((1<<lvl)-1) != 0 { // some D_j with j >= lvl contains v
				b |= 1 << lvl
			}
		}
		b |= 1 // B_0 = V
		bbits[v] = bset{B: b}
	}

	// --- Step 4: σ-selection aggregation (Algorithm 5 lines 18-29) ---
	bBits, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(bbits), 1)
	if err != nil {
		return nil, err
	}
	type sigSlot struct {
		Rank uint64
		Nbr  int32
		OU   int32
		OV   int32
		W    int64
	}
	type sigAgg struct {
		OrB   uint64
		Slots []sigSlot
	}
	sigWords := 1 + 5*levels
	sigItems := make([][]prims.KV[sigAgg], kk)
	c.Each(func(i int) {
		// Every item's slots are cut from one slab for the machine.
		slab := make([]sigSlot, 2*len(edges[i])*levels)
		for j, e := range edges[i] {
			for dir := 0; dir < 2; dir++ {
				u, v := e.U, e.V
				if dir == 1 {
					u, v = v, u
				}
				bv, _ := bBits.Slot(i, int(slots[i][2*j+1-dir]))
				agg := sigAgg{OrB: bv.B, Slots: slab[:levels:levels]}
				slab = slab[levels:]
				for s := range agg.Slots {
					agg.Slots[s].Nbr = -1
				}
				r := rankHash.Eval(uint64(u)*uint64(n) + uint64(v))
				for lvl := 0; lvl < levels; lvl++ {
					if bv.B&(1<<lvl) != 0 {
						agg.Slots[lvl] = sigSlot{Rank: r, Nbr: int32(v), OU: int32(e.U), OV: int32(e.V), W: e.W}
					}
				}
				sigItems[i] = append(sigItems[i], prims.KV[sigAgg]{K: int64(u), V: agg})
			}
		}
	})
	// The combine owns both arguments, so it folds b into a's slots.
	sigCombine := func(a, b sigAgg) sigAgg {
		a.OrB |= b.OrB
		for s, sb := range b.Slots {
			sa := a.Slots[s]
			if sa.Nbr < 0 || (sb.Nbr >= 0 && (sb.Rank < sa.Rank || (sb.Rank == sa.Rank && sb.Nbr < sa.Nbr))) {
				a.Slots[s] = sb
			}
		}
		return a
	}
	sigRoots, err := prims.PlanCombine(c, plan, sigItems, sigWords, sigCombine)
	if err != nil {
		return nil, err
	}
	sigAtLarge, err := prims.GatherMap(c, sigRoots, func(sigAgg) int { return sigWords })
	if err != nil {
		return nil, err
	}

	// Large machine: compute i_u, σ_u and the star edges.
	var spanner []graph.Edge // accumulates H on the large machine
	sigma := make(map[int64]int64, len(degAtLarge))
	topLevel := make(map[int64]int, len(degAtLarge))
	for v, agg := range sigAtLarge {
		own := bbits[v].B
		all := own | agg.OrB
		iu := 63 - bits.LeadingZeros64(all) // max set bit; B_0 guarantees >= 0
		topLevel[v] = iu
		if own&(1<<iu) != 0 {
			sigma[v] = v
			continue
		}
		slot := agg.Slots[iu]
		if slot.Nbr < 0 {
			// OrB said a neighbor exists at iu; slots must agree.
			return nil, fmt.Errorf("core: spanner σ-selection inconsistency at vertex %d", v)
		}
		sigma[v] = int64(slot.Nbr)
		spanner = append(spanner, graph.NewEdge(int(slot.OU), int(slot.OV), slot.W))
	}

	// --- Step 5: clustering-graph edges E_lvl (Claim 2) ---
	sigmas, err := prims.PlanBroadcast(c, plan, nil, prims.SortedKVs(sigma), 1)
	if err != nil {
		return nil, err
	}
	n2 := int64(n) * int64(n)
	ceItems := make([][]prims.KV[clusterEdge], kk)
	c.Each(func(i int) {
		for j, e := range edges[i] {
			su, okU := sigmas.Slot(i, int(slots[i][2*j]))
			sv, okV := sigmas.Slot(i, int(slots[i][2*j+1]))
			if !okU || !okV || su == sv {
				continue
			}
			du, _ := degs.Slot(i, int(slots[i][2*j]))
			dv, _ := degs.Slot(i, int(slots[i][2*j+1]))
			md := du
			if dv < md {
				md = dv
			}
			lvl := bits.Len64(uint64(md)) - 1
			if lvl >= levels {
				lvl = levels - 1
			}
			a, b := int(su), int(sv)
			if a > b {
				a, b = b, a
			}
			key := int64(lvl)*n2 + int64(a)*int64(n) + int64(b)
			ceItems[i] = append(ceItems[i], prims.KV[clusterEdge]{
				K: key,
				V: clusterEdge{U: a, V: b, Orig: e},
			})
		}
	})
	ceCombine := func(a, b clusterEdge) clusterEdge {
		if b.Orig.U < a.Orig.U || (b.Orig.U == a.Orig.U && b.Orig.V < a.Orig.V) {
			return b
		}
		return a
	}
	ceRoots, _, err := prims.AggregateByKey(c, ceItems, clusterEdgeWords, ceCombine, false)
	if err != nil {
		return nil, err
	}
	// Reorganize per machine into per-level edge lists and report counts.
	perLvl := make([][][]clusterEdge, kk)
	lvlCounts := make([][]int64, kk)
	c.Each(func(i int) {
		perLvl[i] = make([][]clusterEdge, levels)
		lvlCounts[i] = make([]int64, levels)
		for _, root := range ceRoots[i] {
			lvl := int(root.K / n2)
			perLvl[i][lvl] = append(perLvl[i][lvl], root.V)
			lvlCounts[i][lvl]++
		}
	})
	counts, err := prims.GatherToLarge(c, lvlCounts, 1)
	if err != nil {
		return nil, err
	}
	totals := make([]int64, levels)
	for j, cnt := range counts { // machine-major: levels counts per machine
		totals[j%levels] += cnt
	}

	// --- Step 6: per-level plan (direct vs modified Baswana-Sen) ---
	pLvl := make([]float64, levels)
	direct := make([]bool, levels)
	fk := float64(k)
	budgetPerLvl := int64(c.LargeCap()) / int64(4*levels*(clusterEdgeWords+2))
	for lvl := 0; lvl < levels; lvl++ {
		if lvl == 0 {
			direct[0] = true
			pLvl[0] = 1
			continue
		}
		p := fk * fk * math.Pow(float64(lvl), 1+1/fk) / math.Pow(2, float64(lvl))
		if p >= 1 || totals[lvl] <= int64(n) {
			direct[lvl] = true
			pLvl[lvl] = 1
			continue
		}
		// Capacity clamp (smaller p still yields a valid, slightly larger
		// spanner by Lemma 4.3).
		if exp := p * float64(totals[lvl]) * fk; exp > float64(budgetPerLvl) {
			p = float64(budgetPerLvl) / (float64(totals[lvl]) * fk)
		}
		pLvl[lvl] = p
		res.SampledLevels++
	}
	type levelPlan struct {
		Direct []bool
		P      []float64
	}
	plans, err := prims.BroadcastValue(c, levelPlan{Direct: direct, P: pLvl}, 2*levels)
	if err != nil {
		return nil, err
	}

	// --- Step 7: direct levels — ship whole clustering graphs ---
	type lvlEdge struct {
		Lvl int32
		E   clusterEdge
	}
	directData := make([][]lvlEdge, kk)
	c.Each(func(i int) {
		for lvl := 0; lvl < levels; lvl++ {
			if !plans[i].Direct[lvl] {
				continue
			}
			for _, e := range perLvl[i][lvl] {
				directData[i] = append(directData[i], lvlEdge{Lvl: int32(lvl), E: e})
			}
		}
	})
	directEdges, err := prims.GatherToLarge(c, directData, clusterEdgeWords+1)
	if err != nil {
		return nil, err
	}
	// Vertex sets V_lvl = {σ_u : i_u >= lvl}.
	vSets := make([][]int, levels)
	for v, iu := range topLevel {
		s := int(sigma[v])
		for lvl := 0; lvl <= iu && lvl < levels; lvl++ {
			vSets[lvl] = append(vSets[lvl], s)
		}
	}
	for lvl := range vSets {
		vSets[lvl] = dedupInts(vSets[lvl])
	}
	byLvl := make([][]clusterEdge, levels)
	for _, le := range directEdges {
		byLvl[le.Lvl] = append(byLvl[le.Lvl], le.E)
	}
	const greedyLimit = 60000
	for lvl := 0; lvl < levels; lvl++ {
		if !direct[lvl] || len(byLvl[lvl]) == 0 {
			continue
		}
		res.DirectLevels++
		var h []graph.Edge
		if len(byLvl[lvl]) <= greedyLimit {
			h = greedySpanner(vSets[lvl], byLvl[lvl], k)
		} else {
			h = baswanaSenLocal(vSets[lvl], byLvl[lvl], k, lrng)
		}
		spanner = append(spanner, h...)
	}

	// --- Step 8: sampled levels — modified Baswana-Sen, all levels batched ---
	type sampledEdge struct {
		Lvl     int32
		BSLevel int32
		E       clusterEdge
	}
	sampData := make([][]sampledEdge, kk)
	c.Each(func(i int) {
		rng := c.Rand(i)
		for lvl := 0; lvl < levels; lvl++ {
			if plans[i].Direct[lvl] {
				continue
			}
			p := plans[i].P[lvl]
			for _, e := range perLvl[i][lvl] {
				for bsl := 1; bsl <= k; bsl++ {
					if rng.Float64() < p {
						sampData[i] = append(sampData[i], sampledEdge{Lvl: int32(lvl), BSLevel: int32(bsl), E: e})
					}
				}
			}
		}
	})
	sampEdges, err := prims.GatherToLarge(c, sampData, clusterEdgeWords+2)
	if err != nil {
		return nil, err
	}
	// Per sampled level: run lines 1-15 on the large machine.
	type ctrTable struct{ C []int32 }
	tables := make([]*bsTables, levels)
	tableValues := make(map[int64]ctrTable) // key = lvl*n + clusterID
	for lvl := 0; lvl < levels; lvl++ {
		if direct[lvl] {
			continue
		}
		sampledAdj := make([]map[int][]bsHalf, k)
		for i := range sampledAdj {
			sampledAdj[i] = make(map[int][]bsHalf)
		}
		for _, se := range sampEdges {
			if int(se.Lvl) != lvl {
				continue
			}
			a := sampledAdj[se.BSLevel-1]
			a[se.E.U] = append(a[se.E.U], bsHalf{To: se.E.V, Orig: se.E.Orig})
			a[se.E.V] = append(a[se.E.V], bsHalf{To: se.E.U, Orig: se.E.Orig})
		}
		verts := vSets[lvl]
		prob := 1 / math.Pow(float64(max(2, len(verts))), 1/fk)
		t, reclust := bsPhase1(verts, sampledAdj, k, prob, lrng)
		tables[lvl] = t
		spanner = append(spanner, reclust...)
		for _, v := range verts {
			tc := make([]int32, k+1)
			for i := 0; i <= k; i++ {
				tc[i] = int32(t.Centers[i][v])
			}
			tableValues[int64(lvl)*int64(n)+int64(v)] = ctrTable{C: tc}
		}
	}

	// Disseminate the cluster tables to machines holding sampled-level
	// clustering edges, then run lines 16-18 distributed. The machine's
	// sampled-level edges, in level order, read their endpoints' tables off
	// slots 2j and 2j+1 of tblSlots.
	tblKeys := make([][]int64, kk)
	c.Each(func(i int) {
		for lvl := 0; lvl < levels; lvl++ {
			if plans[i].Direct[lvl] {
				continue
			}
			for _, e := range perLvl[i][lvl] {
				tblKeys[i] = append(tblKeys[i], int64(lvl)*int64(n)+int64(e.U), int64(lvl)*int64(n)+int64(e.V))
			}
		}
	})
	tblNeeds, tblSlots := prims.DistinctSlots(tblKeys)
	tbls, err := prims.DisseminateFromLarge(c, tblNeeds, tableValues, k+2)
	if err != nil {
		return nil, err
	}

	// Removal candidates: key (lvl, removed cluster v, adjacent center c),
	// value = edge with the smallest neighbor id (Claim 2, as in §4).
	type remVal struct {
		U    int32
		Orig graph.Edge
	}
	remItems := make([][]prims.KV[remVal], kk)
	c.Each(func(i int) {
		ts := tblSlots[i]
		for lvl := 0; lvl < levels; lvl++ {
			if plans[i].Direct[lvl] {
				continue
			}
			for _, e := range perLvl[i][lvl] {
				tu, okU := tbls.Slot(i, int(ts[0]))
				tv, okV := tbls.Slot(i, int(ts[1]))
				ts = ts[2:]
				if !okU || !okV {
					continue
				}
				for dir := 0; dir < 2; dir++ {
					v, u := e.U, e.V
					cv, cu := tu.C, tv.C
					if dir == 1 {
						v, u = e.V, e.U
						cv, cu = tv.C, tu.C
					}
					// Find v's removal level.
					ri := -1
					for x := 1; x <= k; x++ {
						if cv[x-1] >= 0 && cv[x] < 0 {
							ri = x
							break
						}
					}
					if ri < 0 {
						continue
					}
					cc := cu[ri-1]
					if cc < 0 || cc == cv[ri-1] {
						continue
					}
					key := (int64(lvl)*int64(n)+int64(v))*int64(n) + int64(cc)
					remItems[i] = append(remItems[i], prims.KV[remVal]{
						K: key,
						V: remVal{U: int32(u), Orig: e.Orig},
					})
				}
			}
		}
	})
	remRoots, _, err := prims.AggregateByKey(c, remItems, 4,
		func(a, b remVal) remVal {
			if b.U < a.U {
				return b
			}
			return a
		}, false)
	if err != nil {
		return nil, err
	}
	remData := make([][]graph.Edge, kk)
	c.Each(func(i int) {
		for _, root := range remRoots[i] {
			remData[i] = append(remData[i], root.V.Orig)
		}
	})
	remEdges, err := prims.GatherToLarge(c, remData, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	spanner = append(spanner, remEdges...)

	res.Edges = dedupeEdges(spanner)
	return res, nil
}

// dedupInts sorts and deduplicates.
func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// SpannerWeighted computes an O(k)-spanner for a weighted graph by the
// standard reduction (§4 / [22]): edges are partitioned into O(log W)
// geometric weight classes, an unweighted spanner is built per class, and
// the union is returned. Stretch is 12k-1 with size O(n^{1+1/k} log n). The
// classes are processed sequentially (DESIGN.md substitution 2); the
// per-class round count is the O(1) the paper asserts.
func SpannerWeighted(c *mpc.Cluster, g *graph.Graph, k int) (*SpannerResult, error) {
	if !c.HasLarge() {
		return nil, errNeedsLarge("SpannerWeighted")
	}
	sp := c.Span("spanner-weighted")
	res := &SpannerResult{Stretch: 12*k - 1}
	defer func() { res.Stats = statsOf(sp.End()) }()
	var maxW int64 = 1
	for _, e := range g.Edges {
		if e.W > maxW {
			maxW = e.W
		}
	}
	classes := bits.Len64(uint64(maxW))
	var all []graph.Edge
	for cls := 0; cls < classes; cls++ {
		lo, hi := int64(1)<<cls, int64(1)<<(cls+1)
		var sub []graph.Edge
		for _, e := range g.Edges {
			if e.W >= lo && e.W < hi {
				sub = append(sub, e)
			}
		}
		if len(sub) == 0 {
			continue
		}
		sg := &graph.Graph{N: g.N, Edges: sub, Weighted: true}
		r, err := Spanner(c, sg, k)
		if err != nil {
			return nil, err
		}
		all = append(all, r.Edges...)
	}
	res.Edges = dedupeEdges(all)
	return res, nil
}
