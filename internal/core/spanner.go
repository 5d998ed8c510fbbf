package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	Stats         mpc.Stats
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
	defer func() { res.Stats = sp.End().Model() }()
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
	// and dissemination below runs over it. Its widest values are the
	// hitting-set bits, sized by the degree classes (a degree is at most
	// 2m), or the σ-selection's pick.
	trials := int(math.Ceil(math.Log2(float64(n) + 2)))
	maxLevels := bits.Len64(uint64(2 * len(g.Edges)))
	verts, slots := prims.DistinctSlots(prims.Endpoints(edges))
	plan, err := prims.NewPlan(c, verts, max(spannerBitWords(maxLevels, trials), sigPickWords))
	if err != nil {
		return nil, err
	}

	// --- Step 1: degrees (Claim 2 + Claim 3) ---
	// The large machine's per-vertex state below is slices aligned with
	// degAtLarge: one entry for every vertex with an edge, by vertex. The
	// neighbor-OR and σ-selection items below name both endpoints of every
	// edge, so their gathered roots are aligned with it too.
	degAtLarge, err := degreesAtLarge(c, plan, edges, unitWeight)
	if err != nil {
		return nil, err
	}
	degs, err := prims.PlanBroadcast(c, plan, nil, degAtLarge, 1)
	if err != nil {
		return nil, err
	}
	// The degree classes [2^i, 2^{i+1}), i = 0..levels-1: the large machine
	// counts them and sends the count (one word), which sizes the small
	// machines' hitting-set bits and caps their level edges' levels.
	levels := bits.Len64(uint64(maxValue(degAtLarge, 1)))
	if _, err := prims.BroadcastValue(c, levels, 1); err != nil {
		return nil, err
	}

	// --- Step 2: hitting-set trials (Algorithm 5 lines 1-7) ---
	bitWords := spannerBitWords(levels, trials)
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
	dbits := make([]prims.KV[vbits], len(degAtLarge))
	for x, d := range degAtLarge {
		b := make([]uint64, bitWords)
		for lvl := 1; lvl < levels; lvl++ {
			p := float64(lvl) / math.Pow(2, float64(lvl))
			for j := 0; j < trials; j++ {
				if lrng.Float64() < p {
					setDBit(b, lvl, j)
				}
			}
		}
		dbits[x] = prims.KV[vbits]{K: d.K, V: vbits{B: b}}
	}
	dBits, err := prims.PlanBroadcast(c, plan, nil, dbits, bitWords)
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
	orAtLarge, err := prims.GatherKVs(c, orRoots, bitWords)
	if err != nil {
		return nil, err
	}

	// Large machine: augment the trial sets, pick the smallest trial per
	// level (lines 13-16), and form B_i = ∪_{j>=i} D_j as per-vertex bitsets.
	sizes := make([][]int, levels) // [lvl][trial]
	for lvl := 1; lvl < levels; lvl++ {
		sizes[lvl] = make([]int, trials)
	}
	augmented := make([][]bool, len(dbits)) // per (lvl,trial) augmented membership flattened
	for x, own := range dbits {
		cls := bits.Len64(uint64(degAtLarge[x].V)) - 1 // degree class
		or := orAtLarge[x].V
		mem := make([]bool, (levels-1)*trials)
		for lvl := 1; lvl < levels; lvl++ {
			for j := 0; j < trials; j++ {
				in := dBit(own.V.B, lvl, j)
				if !in && lvl <= cls && !dBit(or.B, lvl, j) {
					in = true // u joins D_lvl^j (augmentation)
				}
				if in {
					mem[(lvl-1)*trials+j] = true
					sizes[lvl][j]++
				}
			}
		}
		augmented[x] = mem
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
	bbits := make([]prims.KV[bset], len(dbits))
	for x, mem := range augmented {
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
		if err := checkNested(dbits[x].K, b); err != nil {
			return nil, err
		}
		bbits[x] = prims.KV[bset]{K: dbits[x].K, V: bset{B: b}}
	}

	// --- Step 4: σ-selection aggregation (Algorithm 5 lines 18-29) ---
	bBits, err := prims.PlanBroadcast(c, plan, nil, bbits, 1)
	if err != nil {
		return nil, err
	}
	// Each item is its neighbour's pick: the top level of the neighbour's B
	// and the edge's rank. The large machine reads only the pick among the
	// neighbours of the highest top level, so nothing else is sent.
	sigItems := make([][]prims.KV[sigPick], kk)
	c.Each(func(i int) {
		sigItems[i] = make([]prims.KV[sigPick], 0, 2*len(edges[i]))
		for j, e := range edges[i] {
			for dir := 0; dir < 2; dir++ {
				u, v := e.U, e.V
				if dir == 1 {
					u, v = v, u
				}
				bv, _ := bBits.Slot(i, int(slots[i][2*j+1-dir]))
				r := rankHash.Eval(uint64(u)*uint64(n) + uint64(v))
				pick := sigPick{Top: int32(bits.Len64(bv.B) - 1), Nbr: int32(v), Rank: r, W: e.W}
				sigItems[i] = append(sigItems[i], prims.KV[sigPick]{K: int64(u), V: pick})
			}
		}
	})
	sigRoots, err := prims.PlanCombine(c, plan, sigItems, sigPickWords, higherPick)
	if err != nil {
		return nil, err
	}
	sigAtLarge, err := prims.GatherKVs(c, sigRoots, sigShipWords)
	if err != nil {
		return nil, err
	}

	// Large machine: compute i_u, σ_u and the star edges.
	var spanner []graph.Edge // accumulates H on the large machine
	sigma := make([]prims.KV[int64], len(sigAtLarge))
	topLevel := make([]int, len(sigAtLarge))
	for x, kv := range sigAtLarge {
		iu, s, star, ok := pickSigma(kv.K, bbits[x].V.B, kv.V)
		topLevel[x] = iu
		sigma[x] = prims.KV[int64]{K: kv.K, V: s}
		if ok {
			spanner = append(spanner, star)
		}
	}

	// --- Step 5: clustering-graph edges E_lvl (Claim 2) ---
	sigmas, err := prims.PlanBroadcast(c, plan, nil, sigma, 1)
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
			le := levelEdge(e, su, sv, du, dv, levels)
			key := int64(le.Lvl)*n2 + int64(le.E.U)*int64(n) + int64(le.E.V)
			ceItems[i] = append(ceItems[i], prims.KV[clusterEdge]{K: key, V: le.E})
		}
	})
	ceCombine := func(a, b clusterEdge) clusterEdge {
		if b.Orig.U < a.Orig.U || (b.Orig.U == a.Orig.U && b.Orig.V < a.Orig.V) {
			return b
		}
		return a
	}
	ceRoots, err := prims.AggregateByKey(c, ceItems, clusterEdgeWords, ceCombine)
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
	// An edge ships as its original edge: the large machine rebuilds its
	// level and cluster ids by the small machines' rule, from σ and the
	// degrees it holds, at its endpoints' positions in degAtLarge.
	shipped, err := gatherShipped(c, directData, func(le lvlEdge) graph.Edge { return le.E.Orig }, prims.EdgeWords)
	if err != nil {
		return nil, err
	}
	at := make([]int32, n)
	for x, d := range degAtLarge {
		at[d.K] = int32(x)
	}
	rebuildLevel := func(e graph.Edge) lvlEdge {
		x, y := at[e.U], at[e.V]
		return levelEdge(e, sigma[x].V, sigma[y].V, degAtLarge[x].V, degAtLarge[y].V, levels)
	}
	directEdges := make([]lvlEdge, len(shipped))
	for j, e := range shipped {
		directEdges[j] = rebuildLevel(e)
	}
	rebuilt("spanner/direct", directData, directEdges)
	// Vertex sets V_lvl = {σ_u : i_u >= lvl}.
	vSets := make([][]int, levels)
	for x, iu := range topLevel {
		s := int(sigma[x].V)
		for lvl := 0; lvl <= iu && lvl < levels; lvl++ {
			vSets[lvl] = append(vSets[lvl], s)
		}
	}
	for lvl := range vSets {
		slices.Sort(vSets[lvl])
		vSets[lvl] = slices.Compact(vSets[lvl])
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
	// Each (level, BS-level, edge) trial is a coin hashed from the broadcast
	// seed and the edge, so the sample is a function of the input, not of
	// the machine a Sort's buckets put the edge on.
	trialSeed := xrand.Split(seed, uint64(n))
	coin := func(lvl, bsl int, e graph.Edge) float64 {
		h := xrand.Split(xrand.Split(trialSeed, uint64(lvl*(k+1)+bsl)), uint64(e.U)*uint64(n)+uint64(e.V))
		return float64(h>>11) / (1 << 53)
	}
	sampData := make([][]sampledEdge, kk)
	c.Each(func(i int) {
		for lvl := 0; lvl < levels; lvl++ {
			if plans[i].Direct[lvl] {
				continue
			}
			p := plans[i].P[lvl]
			for _, e := range perLvl[i][lvl] {
				for bsl := 1; bsl <= k; bsl++ {
					if coin(lvl, bsl, e.Orig) < p {
						sampData[i] = append(sampData[i], sampledEdge{lvlEdge: lvlEdge{Lvl: int32(lvl), E: e}, BSLevel: int32(bsl)})
					}
				}
			}
		}
	})
	// A sampled edge ships as its original edge and BS level; the large
	// machine rebuilds its level and cluster ids as it does a direct edge's.
	sampShipped, err := gatherShipped(c, sampData, sampledEdge.shipped, prims.EdgeWords+1)
	if err != nil {
		return nil, err
	}
	sampEdges := make([]sampledEdge, len(sampShipped))
	for j, se := range sampShipped {
		sampEdges[j] = sampledEdge{lvlEdge: rebuildLevel(se.E), BSLevel: se.BSLevel}
	}
	rebuilt("spanner/sampled", sampData, sampEdges)
	// Per sampled level: run lines 1-15 on the large machine.
	type ctrTable struct{ C []int32 }
	tables := make([]*bsTables, levels)
	var tableValues []prims.KV[ctrTable] // key = lvl*n + clusterID, ascending: levels ascend, and vSets[lvl] too
	for lvl := 0; lvl < levels; lvl++ {
		if direct[lvl] {
			continue
		}
		sampledAdj := make([][][]bsHalf, k)
		for i := range sampledAdj {
			sampledAdj[i] = make([][]bsHalf, n)
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
			tableValues = append(tableValues, prims.KV[ctrTable]{K: int64(lvl)*int64(n) + int64(v), V: ctrTable{C: tc}})
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
	remRoots, err := prims.AggregateByKey(c, remItems, 4,
		func(a, b remVal) remVal {
			if b.U < a.U {
				return b
			}
			return a
		})
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

	res.Edges = graph.DedupEdges(spanner)
	return res, nil
}

// lvlEdge is an edge of clustering graph A_Lvl.
type lvlEdge struct {
	Lvl int32
	E   clusterEdge
}

// sampledEdge is an edge of a sampled level's clustering graph, drawn into
// the modified Baswana-Sen level BSLevel.
type sampledEdge struct {
	lvlEdge
	BSLevel int32
}

// sampledShip is what a sampled edge sends the large machine,
// prims.EdgeWords + 1: its original edge and BS level.
type sampledShip struct {
	E       graph.Edge
	BSLevel int32
}

func (se sampledEdge) shipped() sampledShip { return sampledShip{E: se.E.Orig, BSLevel: se.BSLevel} }

// levelEdge files original edge e, whose endpoints have σ su ≠ sv and
// degrees du, dv, as an edge of A_lvl: lvl is the degree class of the
// smaller degree, capped at levels−1, and the cluster ids ascend. The small
// machines file e by it, and the large machine rebuilds a shipped direct
// edge with it.
func levelEdge(e graph.Edge, su, sv, du, dv int64, levels int) lvlEdge {
	lvl := min(bits.Len64(uint64(min(du, dv)))-1, levels-1)
	a, b := int(min(su, sv)), int(max(su, sv))
	return lvlEdge{Lvl: int32(lvl), E: clusterEdge{U: a, V: b, Orig: e}}
}

// spannerBitWords is the size of a vertex's hitting-set bits: one per trial
// per degree class above the first, at least a word.
func spannerBitWords(levels, trials int) int {
	return max(((levels-1)*trials+63)/64, 1)
}

// sigPick is a vertex's σ-selection value (Algorithm 5 lines 18-29): of
// its neighbours whose B reaches the highest level Top, the one, Nbr, whose
// edge has the smallest (Rank, Nbr), and that edge's weight W.
type sigPick struct {
	Top  int32
	Nbr  int32
	Rank uint64
	W    int64
}

// sigPickWords is a sigPick's size in the combine: Top, Nbr, Rank and W.
// The gather to the large machine ships sigShipWords, Top, Nbr and W:
// pickSigma never reads Rank, which only orders the combine.
const (
	sigPickWords = 4
	sigShipWords = 3
)

// higherPick combines two picks: the higher Top wins, then the smaller
// (Rank, Nbr), then a.
func higherPick(a, b sigPick) sigPick {
	if b.Top > a.Top || b.Top == a.Top && (b.Rank < a.Rank || b.Rank == a.Rank && b.Nbr < a.Nbr) {
		return b
	}
	return a
}

// pickSigma is the large machine's σ-selection for vertex v, whose own B
// is the bitset own and whose neighbours' combined pick is p: i_v is the
// highest level of own or p, and σ_v is v itself if own reaches i_v, else
// p's neighbour, whose edge joins the spanner as v's star edge (ok).
//
// A neighbour has level T = p.Top in its B exactly when T is its B's top,
// since no neighbour's top is higher, so p is the smallest-(Rank, Nbr)
// neighbour in B_T: the slot a per-level fold would keep at T.
func pickSigma(v int64, own uint64, p sigPick) (iv int, sigma int64, star graph.Edge, ok bool) {
	if top := bits.Len64(own) - 1; top >= int(p.Top) {
		return top, v, graph.Edge{}, false
	}
	return int(p.Top), int64(p.Nbr), graph.NewEdge(int(v), int(p.Nbr), p.W), true
}

// bSetError reports a vertex whose B, as the large machine built it, is not
// downward closed. Algorithm 5 nests B_0 ⊇ B_1 ⊇ …, and the level vertex
// sets V_lvl = {σ_u : i_u ≥ lvl} are centres in B_lvl only if it does.
type bSetError struct {
	V int64
	B uint64
}

func (e *bSetError) Error() string {
	return fmt.Sprintf("core: spanner B set %#b of vertex %d is not downward closed", e.B, e.V)
}

// checkNested returns a *bSetError unless b, vertex v's B as a bitset of
// levels, is bits 0..t for some t.
func checkNested(v int64, b uint64) error {
	if b&(b+1) != 0 {
		return &bSetError{V: v, B: b}
	}
	return nil
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
	defer func() { res.Stats = sp.End().Model() }()
	maxW, err := maxEdgeWeight(c, g)
	if err != nil {
		return nil, err
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
	res.Edges = graph.DedupEdges(all)
	return res, nil
}
