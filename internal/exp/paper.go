package exp

import (
	"fmt"
	"math"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/labeling"
	"hetmpc/internal/mpc"
	"hetmpc/internal/xrand"
)

// The paper's own evaluation: Table 1 and the figure-style sweeps E2–E16,
// each on the uniform cluster of the paper's model.

// Sizes used by the Table 1 reproduction. Small enough to run in seconds,
// large enough that the log-vs-loglog-vs-constant separations are visible.
const (
	t1N       = 512
	t1M       = 4096
	t1CutN    = 128 // Stoer-Wagner reference is cubic; min-cut rows use this
	t1ApproxN = 96  // the threshold sweep runs many sketch-connectivity passes
)

// table1 reproduces the paper's Table 1: for each problem it measures the
// executed communication rounds in the sublinear baseline regime (no large
// machine), the heterogeneous regime (one near-linear machine), and the
// heterogeneous regime with a superlinear machine (f = 0.5, the abstract's
// "all problems in O(1) rounds" setting), next to the complexities the paper
// states. Output correctness is validated on every run.
func (rn *run) table1(seed uint64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 1 — measured rounds, n=%d m=%d (γ=0.5; min-cut rows n=%d)", t1N, t1M, t1CutN),
		Header: []string{"problem", "sublinear (measured)", "heterogeneous (measured)", "het+superlinear (measured)",
			"paper: sublinear", "paper: heterogeneous", "paper: near-linear"},
	}

	gU := graph.ConnectedGNM(t1N, t1M, seed, false)
	gW := graph.ConnectedGNM(t1N, t1M, seed, true)
	_, comps := graph.Components(gU)
	_, want := graph.KruskalMSF(gW)
	base, regime, super := baseline(t1N, t1M, seed), het(t1N, t1M, 0, seed), het(t1N, t1M, 0.5, seed)

	// --- Connectivity ---
	{
		_, rs, err := cell(rn, base, baseCC(gU, comps))
		if err != nil {
			return nil, err
		}
		_, rh, err := cell(rn, regime, cc(gU, comps))
		if err != nil {
			return nil, err
		}
		_, rf, err := cell(rn, super, cc(gU, comps))
		if err != nil {
			return nil, err
		}
		t.AddRow("connectivity",
			fmt.Sprintf("%d rounds (%d phases)", rs.Stats.Rounds, rs.Phases),
			fmt.Sprintf("%d rounds", rh.Stats.Rounds),
			fmt.Sprintf("%d rounds", rf.Stats.Rounds),
			"O(log D + loglog n)", "O(1)", "O(1)")
	}

	// --- MST ---
	{
		_, rs, err := cell(rn, base, baseMST(gW, want))
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		_, rh, err := cell(rn, regime, mst(gW, want))
		if err != nil {
			return nil, err
		}
		_, rf, err := cell(rn, super, mst(gW, want))
		if err != nil {
			return nil, err
		}
		t.AddRow("MST",
			fmt.Sprintf("%d rounds (%d phases)", rs.Stats.Rounds, rs.Phases),
			fmt.Sprintf("%d rounds (%d phases)", rh.Stats.Rounds, rh.BoruvkaPhases),
			fmt.Sprintf("%d rounds (%d phases)", rf.Stats.Rounds, rf.BoruvkaPhases),
			"O(log n)", "O(loglog(m/n)) [new]", "O(1)")
	}

	// --- (1+ε)-approx MST weight ---
	{
		gA := graph.ConnectedGNM(t1ApproxN, t1ApproxN*6, seed, true)
		for i := range gA.Edges {
			gA.Edges[i].W = gA.Edges[i].W%32 + 1
		}
		_, exact := graph.KruskalMSF(gA)
		_, rh, err := cell(rn, het(gA.N, gA.M(), 0, seed), func(c *mpc.Cluster) (*core.MSTApproxResult, error) {
			return core.ApproxMSTWeight(c, gA, 0.25)
		})
		if err != nil {
			return nil, err
		}
		errPct := 100 * float64(rh.Estimate-exact) / float64(exact)
		t.AddRow("(1+eps)-approx MST",
			"(no better than exact)",
			fmt.Sprintf("%d rounds/threshold, err %+.1f%%", rh.Stats.Rounds/rh.Thresholds, errPct),
			"same as heterogeneous",
			"—", "O(1) per threshold", "exact in O(1)")
	}

	// --- O(k)-spanner ---
	{
		k := 4
		_, rs, err := cell(rn, base, baseSpanner(gU, k, seed))
		if err != nil {
			return nil, err
		}
		_, rh, err := cell(rn, regime, spanner(gU, k, seed))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("O(k)-spanner (k=%d)", k),
			fmt.Sprintf("%d rounds (%d levels; plain BS)", rs.Stats.Rounds, rs.Levels),
			fmt.Sprintf("%d rounds, %d edges", rh.Stats.Rounds, len(rh.Edges)),
			"same as heterogeneous",
			"O(log k) [14]", "O(1) [new]", "O(1)")
	}

	// --- exact unweighted min cut ---
	{
		gC := graph.PlantedCut(t1CutN, 400, 3, seed, false)
		want := graph.StoerWagner(gC)
		_, rh, err := cell(rn, het(gC.N, gC.M(), 0, seed), func(c *mpc.Cluster) (*core.MinCutResult, error) {
			return core.MinCutUnweighted(c, gC)
		})
		if err != nil {
			return nil, err
		}
		status := "exact"
		if rh.Value != want {
			status = fmt.Sprintf("MISMATCH got %d want %d", rh.Value, want)
		}
		t.AddRow("exact unweighted min cut",
			"(not reproduced; [25])",
			fmt.Sprintf("%d rounds/trial (%s)", rh.Stats.Rounds/rh.Trials, status),
			"same as heterogeneous",
			"O(polylog n)", "O(1) per trial", "O(1)")
	}

	// --- (1±ε) weighted min cut ---
	{
		gC := graph.PlantedCut(t1CutN, 400, 3, seed+1, true)
		want := graph.StoerWagner(gC)
		_, rh, err := cell(rn, het(gC.N, gC.M(), 0, seed), func(c *mpc.Cluster) (*core.MinCutResult, error) {
			return core.ApproxMinCut(c, gC, 0.25)
		})
		if err != nil {
			return nil, err
		}
		errPct := 100 * float64(rh.Value-want) / float64(want)
		t.AddRow("(1±eps) weighted min cut",
			"(2+eps) in O(log n loglog n)",
			fmt.Sprintf("%d rounds/guess, err %+.1f%%", rh.Stats.Rounds/rh.Trials, errPct),
			"same as heterogeneous",
			"O(log n · loglog n)", "O(1) per guess", "exact in O(1)")
	}

	// --- (Δ+1) coloring ---
	{
		_, rs, err := cell(rn, base, baseColoring(gU))
		if err != nil {
			return nil, err
		}
		_, rh, err := cell(rn, regime, coloring(gU))
		if err != nil {
			return nil, err
		}
		t.AddRow("(Δ+1) vertex coloring",
			fmt.Sprintf("%d rounds (%d trials)", rs.Stats.Rounds, rs.Rounds),
			fmt.Sprintf("%d rounds", rh.Stats.Rounds),
			"same as heterogeneous",
			"O(logloglog n)", "O(1)", "O(1)")
	}

	// --- MIS ---
	{
		_, rs, err := cell(rn, base, baseMIS(gU))
		if err != nil {
			return nil, err
		}
		_, rh, err := cell(rn, regime, mis(gU))
		if err != nil {
			return nil, err
		}
		t.AddRow("maximal independent set",
			fmt.Sprintf("%d rounds (%d Luby rounds)", rs.Stats.Rounds, rs.Rounds),
			fmt.Sprintf("%d rounds (%d iterations)", rh.Stats.Rounds, rh.Iterations),
			"same as heterogeneous",
			"Õ(√log Δ + √loglog n)", "O(loglog Δ)", "O(loglog Δ)")
	}

	// --- maximal matching ---
	{
		_, ps, err := cell(rn, base, baseMatching(gU))
		if err != nil {
			return nil, err
		}
		_, rh, err := cell(rn, regime, maximal(gU, core.MaximalMatching))
		if err != nil {
			return nil, err
		}
		_, rf, err := cell(rn, super, maximal(gU, core.MatchingFiltering))
		if err != nil {
			return nil, err
		}
		t.AddRow("maximal matching",
			fmt.Sprintf("%d rounds (%d peel iters)", ps.Stats.Rounds, ps.Iterations),
			fmt.Sprintf("%d rounds (%d phase-1 iters)", rh.Stats.Rounds, rh.Phase1Iters),
			fmt.Sprintf("%d rounds (%d filter iters)", rf.Stats.Rounds, rf.FilterIters),
			"Õ(√log Δ + √loglog n)", "Õ(√log(m/n)) [new]", "O(loglog Δ)")
	}

	t.Notes = append(t.Notes,
		"every output is validated against exact references before the row is emitted",
		"peeling substitutes [33]'s sparsification (DESIGN.md subst. 1); sequential trials per DESIGN.md subst. 2",
	)
	return t, nil
}

// e2MSTDensity sweeps the edge density: heterogeneous rounds should track
// log log(m/n) (near-flat) while the sublinear baseline tracks log n phases.
func (rn *run) e2MSTDensity(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E2 — MST rounds vs density (n=512): het ~ loglog(m/n), baseline ~ log n",
		Header: []string{"m/n", "het phases", "het rounds", "baseline phases", "baseline rounds", "loglog(m/n)"},
	}
	n := 512
	for _, ratio := range []int{2, 4, 8, 16, 32} {
		m := ratio * n
		g := graph.ConnectedGNM(n, m, seed+uint64(ratio), true)
		_, want := graph.KruskalMSF(g)
		_, rh, err := cell(rn, het(n, m, 0, seed), mst(g, want))
		if err != nil {
			return nil, err
		}
		_, rs, err := cell(rn, baseline(n, m, seed), baseMST(g, want))
		if err != nil {
			return nil, fmt.Errorf("ratio %d: %w", ratio, err)
		}
		t.AddRow(ratio, rh.BoruvkaPhases, rh.Stats.Rounds, rs.Phases, rs.Stats.Rounds,
			math.Log2(math.Log2(float64(ratio))+1))
	}
	return t, nil
}

// e3MSTSuperlinear sweeps the large machine's exponent f (Theorem 3.1):
// phases shrink as log(log_n(m/n)/f).
func (rn *run) e3MSTSuperlinear(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E3 — MST phases vs large-machine exponent f (Theorem 3.1), n=512 m=16384",
		Header: []string{"f", "phases", "rounds", "sample tries"},
	}
	n, m := 512, 16384
	g := graph.ConnectedGNM(n, m, seed, true)
	_, want := graph.KruskalMSF(g)
	for _, f := range []float64{0, 0.125, 0.25, 0.5} {
		_, r, err := cell(rn, het(n, m, f, seed), mst(g, want))
		if err != nil {
			return nil, err
		}
		t.AddRow(f, r.BoruvkaPhases, r.Stats.Rounds, r.SampleTries)
	}
	return t, nil
}

// e4KKT validates Lemma 3.2 empirically: E[#F-light edges] ≤ n/p.
func (rn *run) e4KKT(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E4 — KKT sampling lemma (Lemma 3.2): measured F-light edges vs n/p bound (n=256, m=4096)",
		Header: []string{"p", "avg F-light", "bound n/p", "ratio"},
	}
	n, m := 256, 4096
	g := graph.GNMWeighted(n, m, seed)
	rng := xrand.New(seed + 7)
	for _, p := range []float64{0.05, 0.1, 0.2, 0.4} {
		const trials = 5
		total := 0
		for trial := 0; trial < trials; trial++ {
			var sample []graph.Edge
			for _, e := range g.Edges {
				if rng.Float64() < p {
					sample = append(sample, e)
				}
			}
			f, _ := graph.KruskalMSF(graph.New(n, sample, true))
			labels := labeling.Build(n, f)
			for _, e := range g.Edges {
				if labeling.FLight(e, labels[e.U], labels[e.V]) {
					total++
				}
			}
		}
		avg := float64(total) / trials
		bound := float64(n) / p
		t.AddRow(p, avg, bound, avg/bound)
	}
	t.Notes = append(t.Notes, "ratio must stay at most ~1 (the lemma bounds the expectation)")
	return t, nil
}

// e5Spanner sweeps k: size must scale like n^{1+1/k} and rounds stay O(1).
func (rn *run) e5Spanner(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E5 — spanner size & rounds vs k (Theorem 4.1), n=256 m=16384",
		Header: []string{"k", "stretch bound", "edges", "n^{1+1/k}", "size ratio", "rounds", "stretch check"},
	}
	n, m := 256, 16384
	g := graph.ConnectedGNM(n, m, seed, false)
	for _, k := range []int{2, 3, 4, 6, 8} {
		_, r, err := cell(rn, het(n, m, 0, seed), spanner(g, k, seed))
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		bound := math.Pow(float64(n), 1+1/float64(k))
		t.AddRow(k, r.Stretch, len(r.Edges), bound, float64(len(r.Edges))/bound, r.Stats.Rounds, "ok")
	}
	t.Notes = append(t.Notes,
		"size stays well under the O(n^{1+1/k}) bound at every k and rounds are k-independent (O(1))",
		"random graphs admit far smaller spanners than the worst-case bound (tightness needs high-girth instances)")
	return t, nil
}

// e6ModifiedBS reproduces Figure 1's behaviour quantitatively: the modified
// Baswana-Sen spanner grows by ≈1/p relative to the original (Lemma 4.3).
func (rn *run) e6ModifiedBS(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E6 — Figure 1: original vs modified Baswana-Sen (n=256, m=4096, k=3)",
		Header: []string{"p", "avg size", "size vs original", "1/p", "stretch check"},
	}
	n, m, k := 256, 4096, 3
	g := graph.ConnectedGNM(n, m, seed, false)
	origSize := 0
	{
		const trials = 3
		for trial := 0; trial < trials; trial++ {
			h := core.BaswanaSenReference(g, k, xrand.Split(seed, uint64(trial)))
			origSize += len(h)
		}
		origSize /= trials
	}
	t.AddRow("1 (original)", origSize, 1.0, 1.0, "ok")
	for _, p := range []float64{0.5, 0.25, 0.125} {
		const trials = 3
		total := 0
		check := "ok"
		for trial := 0; trial < trials; trial++ {
			h := core.ModifiedBaswanaSenReference(g, k, p, xrand.Split(seed, uint64(trial)*13+1))
			hg := graph.New(n, h, false)
			if err := graph.CheckSpanner(g, hg, 2*k-1, 3, seed); err != nil {
				check = err.Error()
			}
			total += len(h)
		}
		avg := total / trials
		t.AddRow(p, avg, float64(avg)/float64(origSize), 1/p, check)
	}
	t.Notes = append(t.Notes, "Lemma 4.3: expected size O(k n^{1+1/k} / p); stretch stays 2k-1")
	return t, nil
}

// e7Matching demonstrates the d-vs-Δ separation of Theorem 5.1: phase-1
// iterations are flat in the hub degree (Δ) and grow with the average
// degree d, while the baseline tracks the whole graph.
func (rn *run) e7Matching(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E7 — matching rounds: average degree d vs max degree Δ (Theorem 5.1), n=600",
		Header: []string{"workload", "Δ", "avg deg", "het phase-1 iters", "het rounds", "baseline peel iters", "baseline rounds"},
	}
	n := 600
	for _, hubDeg := range []int{50, 200, 500} {
		g := graph.PlantedHubs(n, 4, 4, hubDeg, seed+uint64(hubDeg))
		_, rh, err := cell(rn, het(n, g.M(), 0, seed), maximal(g, core.MaximalMatching))
		if err != nil {
			return nil, err
		}
		_, ps, err := cell(rn, baseline(n, g.M(), seed), baseMatching(g))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("hubs Δ≈%d, d≈4", hubDeg), g.MaxDegree(),
			fmt.Sprintf("%.1f", g.AvgDegree()), rh.Phase1Iters, rh.Stats.Rounds,
			ps.Iterations, ps.Stats.Rounds)
	}
	for _, d := range []int{4, 16, 48} {
		g := graph.GNM(n, n*d/2, seed+uint64(d))
		_, rh, err := cell(rn, het(n, g.M(), 0, seed), maximal(g, core.MaximalMatching))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("GNM d≈%d", d), g.MaxDegree(),
			fmt.Sprintf("%.1f", g.AvgDegree()), rh.Phase1Iters, rh.Stats.Rounds, "—", "—")
	}
	return t, nil
}

// e8Filtering sweeps the superlinear exponent for Theorem 5.5: filtering
// iterations scale like 1/f.
func (rn *run) e8Filtering(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E8 — matching filtering iterations vs f (Theorem 5.5), n=256 m=16384",
		Header: []string{"f", "filter iters", "rounds", "~1/f"},
	}
	n, m := 256, 16384
	g := graph.GNM(n, m, seed)
	for _, f := range []float64{0.1, 0.2, 0.35, 0.6} {
		_, r, err := cell(rn, het(n, m, f, seed), maximal(g, core.MatchingFiltering))
		if err != nil {
			return nil, err
		}
		t.AddRow(f, r.FilterIters, r.Stats.Rounds, 1/f)
	}
	return t, nil
}

// e9Connectivity checks the O(1)-rounds claim across n: heterogeneous
// rounds stay flat while the baseline grows like log n.
func (rn *run) e9Connectivity(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E9 — connectivity rounds vs n (Theorem C.1): het flat, baseline ~ log n",
		Header: []string{"n", "m", "het rounds", "baseline rounds", "baseline phases", "components"},
	}
	for _, n := range []int{128, 256, 512, 1024} {
		m := 4 * n
		g := graph.GNM(n, m, seed+uint64(n))
		_, want := graph.Components(g)
		_, rh, err := cell(rn, het(n, m, 0, seed), cc(g, want))
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		_, rs, err := cell(rn, baseline(n, m, seed), baseCC(g, want))
		if err != nil {
			return nil, fmt.Errorf("baseline n=%d: %w", n, err)
		}
		t.AddRow(n, m, rh.Stats.Rounds, rs.Stats.Rounds, rs.Phases, rh.Components)
	}
	return t, nil
}

// e10ApproxMST sweeps ε: the estimate tightens as ε shrinks (Theorem C.2).
func (rn *run) e10ApproxMST(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E10 — (1+eps)-MST weight approximation (Theorem C.2), n=96",
		Header: []string{"eps", "estimate", "exact", "rel err", "thresholds", "rounds/threshold"},
	}
	g := graph.ConnectedGNM(96, 600, seed, true)
	for i := range g.Edges {
		g.Edges[i].W = g.Edges[i].W%32 + 1
	}
	_, exact := graph.KruskalMSF(g)
	for _, eps := range []float64{1.0, 0.5, 0.25, 0.1} {
		_, r, err := cell(rn, het(g.N, g.M(), 0, seed), func(c *mpc.Cluster) (*core.MSTApproxResult, error) {
			return core.ApproxMSTWeight(c, g, eps)
		})
		if err != nil {
			return nil, err
		}
		relErr := float64(r.Estimate-exact) / float64(exact)
		t.AddRow(eps, r.Estimate, exact, relErr, r.Thresholds, r.Stats.Rounds/r.Thresholds)
	}
	return t, nil
}

// e11MinCut validates the exact algorithm against Stoer-Wagner and sweeps ε
// for the approximate one.
func (rn *run) e11MinCut(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E11 — minimum cut (Theorems C.3/C.4), n=128",
		Header: []string{"instance", "algorithm", "value", "reference", "rounds/trial"},
	}
	for _, cut := range []int{2, 4} {
		g := graph.PlantedCut(128, 400, cut, seed+uint64(cut), false)
		want := graph.StoerWagner(g)
		_, r, err := cell(rn, het(g.N, g.M(), 0, seed), func(c *mpc.Cluster) (*core.MinCutResult, error) {
			return core.MinCutUnweighted(c, g)
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("planted cut %d", cut), "exact 2-out", r.Value, want, r.Stats.Rounds/r.Trials)
	}
	gw := graph.PlantedCut(128, 400, 3, seed+9, true)
	want := graph.StoerWagner(gw)
	for _, eps := range []float64{0.5, 0.25} {
		_, r, err := cell(rn, het(gw.N, gw.M(), 0, seed), func(c *mpc.Cluster) (*core.MinCutResult, error) {
			return core.ApproxMinCut(c, gw, eps)
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("weighted, eps=%.2f", eps), "Karger skeleton", r.Value, want, r.Stats.Rounds/r.Trials)
	}
	return t, nil
}

// e12MIS sweeps the density: heterogeneous iterations stay ~ log log Δ while
// Luby rounds track log n.
func (rn *run) e12MIS(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E12 — MIS iterations vs Δ (Theorem C.6), n=512",
		Header: []string{"m", "Δ", "het iterations", "het rounds", "Luby rounds", "baseline rounds", "loglog Δ"},
	}
	n := 512
	for _, m := range []int{1024, 4096, 16384} {
		g := graph.GNM(n, m, seed+uint64(m))
		_, rh, err := cell(rn, het(n, m, 0, seed), mis(g))
		if err != nil {
			return nil, err
		}
		_, rs, err := cell(rn, baseline(n, m, seed), baseMIS(g))
		if err != nil {
			return nil, err
		}
		delta := float64(g.MaxDegree())
		t.AddRow(m, g.MaxDegree(), rh.Iterations, rh.Stats.Rounds, rs.Rounds, rs.Stats.Rounds,
			math.Log2(math.Log2(delta)+1))
	}
	return t, nil
}

// e13Coloring measures the conflict-edge volume and round counts
// (Theorem C.7) against the baseline.
func (rn *run) e13Coloring(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E13 — (Δ+1)-coloring (Theorem C.7), n=512",
		Header: []string{"m", "Δ", "het rounds", "conflict edges", "baseline rounds", "baseline trials"},
	}
	n := 512
	for _, m := range []int{2048, 8192} {
		g := graph.GNM(n, m, seed+uint64(m))
		_, rh, err := cell(rn, het(n, m, 0, seed), coloring(g))
		if err != nil {
			return nil, err
		}
		_, rs, err := cell(rn, baseline(n, m, seed), baseColoring(g))
		if err != nil {
			return nil, err
		}
		t.AddRow(m, g.MaxDegree(), rh.Stats.Rounds, rh.ConflictEdges, rs.Stats.Rounds, rs.Rounds)
	}
	return t, nil
}

// e14TwoCycle is the motivating separation: with the large machine the
// 2-vs-1-cycle instance takes O(1) rounds at every n; the baseline's phase
// count grows with n (the conjectured Ω(log n)).
func (rn *run) e14TwoCycle(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E14 — 2-vs-1 cycle (§1): het O(1) rounds vs baseline ~ log n phases",
		Header: []string{"n", "parts", "het answer", "het rounds", "baseline phases", "baseline rounds"},
	}
	for _, n := range []int{256, 1024, 4096} {
		for parts := 1; parts <= 2; parts++ {
			g := graph.Cycles(n, parts, seed+uint64(n)+uint64(parts))
			_, rh, err := cell(rn, het(n, g.M(), 0, seed), checked(g, core.TwoVsOneCycle, func(r *core.TwoVsOneCycleResult) error {
				return components(r.Cycles, parts)
			}))
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			_, rs, err := cell(rn, baseline(n, g.M(), seed), baseCC(g, parts))
			if err != nil {
				return nil, fmt.Errorf("baseline n=%d: %w", n, err)
			}
			t.AddRow(n, parts, rh.Cycles, rh.Stats.Rounds, rs.Phases, rs.Stats.Rounds)
		}
	}
	return t, nil
}

// e15APSP measures the Corollary 4.2 oracle: observed stretch on sampled
// pairs stays within the O(log n) guarantee.
func (rn *run) e15APSP(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E15 — APSP via log n-spanner (Corollary 4.2), n=256 m=2048",
		Header: []string{"source", "pairs", "max observed stretch", "guaranteed stretch", "spanner edges", "build rounds"},
	}
	g := graph.ConnectedGNM(256, 2048, seed, false)
	_, oracle, err := cell(rn, het(g.N, g.M(), 0, seed), func(c *mpc.Cluster) (*core.APSPOracle, error) {
		return core.BuildAPSPOracle(c, g)
	})
	if err != nil {
		return nil, err
	}
	adj := g.Adj()
	for _, src := range []int{0, 101, 222} {
		exact := graph.BFSDist(adj, src)
		worst := 1.0
		pairs := 0
		for v := 0; v < g.N; v += 3 {
			if v == src || exact[v] == math.MaxInt {
				continue
			}
			pairs++
			est := oracle.Dist(src, v)
			ratio := float64(est) / float64(exact[v])
			if ratio > worst {
				worst = ratio
			}
		}
		t.AddRow(src, pairs, worst, oracle.Stretch, oracle.Spanner.M(), oracle.BuildStats.Rounds)
	}
	return t, nil
}

// e16MSTAblation isolates the contribution of each §3 ingredient:
//
//   - "full": doubly-exponential budgets + KKT sampling (the paper);
//   - "budget=2": plain Borůvka budgets with the sampling finish — phases
//     grow to Θ(log of the contraction target);
//   - "no sampling": doubly-exponential budgets run to completion — the
//     final contractions happen against a shrinking vertex set instead of
//     handing Õ(n) F-light edges to the large machine;
//   - "budget=2, no sampling": plain distributed Borůvka through the
//     heterogeneous toolbox, Θ(log n) phases.
//
// Every variant must still produce the exact MSF.
func (rn *run) e16MSTAblation(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "E16 — MST ablation (§3 design choices), n=1024 m=2048 (sparse: the sampling step matters)",
		Header: []string{"variant", "phases", "rounds", "sample tries", "exact"},
	}
	n, m := 1024, 2048
	g := graph.ConnectedGNM(n, m, seed, true)
	_, want := graph.KruskalMSF(g)
	variants := []struct {
		name string
		opts core.MSTOptions
	}{
		{"full (paper)", core.MSTOptions{}},
		{"budget=2", core.MSTOptions{FixedBudget: 2}},
		{"no sampling", core.MSTOptions{DisableSampling: true}},
		{"budget=2, no sampling", core.MSTOptions{FixedBudget: 2, DisableSampling: true}},
	}
	for _, v := range variants {
		_, r, err := cell(rn, het(n, m, 0, seed), mstWith(g, want, v.opts))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		t.AddRow(v.name, r.BoruvkaPhases, r.Stats.Rounds, r.SampleTries, "yes")
	}
	t.Notes = append(t.Notes,
		"disabling the KKT sampling step costs extra contraction phases (the tail the sampling removes)",
		"budget=2 matches the doubly-exponential schedule at laptop scales because the budgeted local merging already over-achieves; the schedules separate only when log(m/n) >> loglog(m/n)")
	return t, nil
}
