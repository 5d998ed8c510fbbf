package exp

import (
	"fmt"
	"math"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/labeling"
	"hetmpc/internal/sublinear"
	"hetmpc/internal/xrand"
)

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
		ch, err := rn.newHet(n, m, 0, seed)
		if err != nil {
			return nil, err
		}
		rh, err := exactMST(ch, g, want)
		if err != nil {
			return nil, err
		}
		cs, err := rn.newSub(n, m, seed)
		if err != nil {
			return nil, err
		}
		rs, err := sublinear.MST(cs, g)
		if err != nil {
			return nil, err
		}
		if rs.Weight != rh.Weight {
			return nil, fmt.Errorf("weight mismatch at ratio %d", ratio)
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
		c, err := rn.newHet(n, m, f, seed)
		if err != nil {
			return nil, err
		}
		r, err := exactMST(c, g, want)
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
		c, err := rn.newHet(n, m, 0, seed)
		if err != nil {
			return nil, err
		}
		r, err := core.Spanner(c, g, k)
		if err != nil {
			return nil, err
		}
		h := graph.New(n, r.Edges, false)
		check := "ok"
		if err := graph.CheckSpanner(g, h, r.Stretch, 4, seed); err != nil {
			check = err.Error()
		}
		bound := math.Pow(float64(n), 1+1/float64(k))
		t.AddRow(k, r.Stretch, len(r.Edges), bound, float64(len(r.Edges))/bound, r.Stats.Rounds, check)
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
		ch, err := rn.newHet(n, g.M(), 0, seed)
		if err != nil {
			return nil, err
		}
		rh, err := maximalMatching(ch, g)
		if err != nil {
			return nil, err
		}
		cs, err := rn.newSub(n, g.M(), seed)
		if err != nil {
			return nil, err
		}
		_, ps, err := sublinear.MaximalMatching(cs, g)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("hubs Δ≈%d, d≈4", hubDeg), g.MaxDegree(),
			fmt.Sprintf("%.1f", g.AvgDegree()), rh.Phase1Iters, rh.Stats.Rounds,
			ps.Iterations, ps.Stats.Rounds)
	}
	for _, d := range []int{4, 16, 48} {
		g := graph.GNM(n, n*d/2, seed+uint64(d))
		ch, err := rn.newHet(n, g.M(), 0, seed)
		if err != nil {
			return nil, err
		}
		rh, err := maximalMatching(ch, g)
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
		c, err := rn.newHet(n, m, f, seed)
		if err != nil {
			return nil, err
		}
		r, err := core.MatchingFiltering(c, g)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckMatching(g, r.Edges, true); err != nil {
			return nil, err
		}
		t.AddRow(f, r.FilterIters, r.Stats.Rounds, 1/f)
	}
	return t, nil
}
