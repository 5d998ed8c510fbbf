package exp

import (
	"fmt"
	"math"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/sublinear"
)

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
		ch, err := rn.newHet(n, m, 0, seed)
		if err != nil {
			return nil, err
		}
		_, want := graph.Components(g)
		rh, err := exactCC(ch, g, want)
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		cs, err := rn.newSub(n, m, seed)
		if err != nil {
			return nil, err
		}
		rs, err := sublinear.Connectivity(cs, g)
		if err != nil {
			return nil, err
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
		c, err := rn.newHet(g.N, g.M(), 0, seed)
		if err != nil {
			return nil, err
		}
		r, err := core.ApproxMSTWeight(c, g, eps)
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
		c, err := rn.newHet(g.N, g.M(), 0, seed)
		if err != nil {
			return nil, err
		}
		r, err := core.MinCutUnweighted(c, g)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("planted cut %d", cut), "exact 2-out", r.Value, want, r.Stats.Rounds/r.Trials)
	}
	gw := graph.PlantedCut(128, 400, 3, seed+9, true)
	want := graph.StoerWagner(gw)
	for _, eps := range []float64{0.5, 0.25} {
		c, err := rn.newHet(gw.N, gw.M(), 0, seed)
		if err != nil {
			return nil, err
		}
		r, err := core.ApproxMinCut(c, gw, eps)
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
		ch, err := rn.newHet(n, m, 0, seed)
		if err != nil {
			return nil, err
		}
		rh, err := core.MIS(ch, g)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckMIS(g, rh.Set); err != nil {
			return nil, err
		}
		cs, err := rn.newSub(n, m, seed)
		if err != nil {
			return nil, err
		}
		rs, err := sublinear.MIS(cs, g)
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
		ch, err := rn.newHet(n, m, 0, seed)
		if err != nil {
			return nil, err
		}
		rh, err := core.Coloring(ch, g)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckColoring(g, rh.Colors, rh.MaxColor); err != nil {
			return nil, err
		}
		cs, err := rn.newSub(n, m, seed)
		if err != nil {
			return nil, err
		}
		rs, err := sublinear.Coloring(cs, g)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckColoring(g, rs.Colors, rs.MaxColor); err != nil {
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
			ch, err := rn.newHet(n, g.M(), 0, seed)
			if err != nil {
				return nil, err
			}
			rh, err := core.TwoVsOneCycle(ch, g)
			if err != nil {
				return nil, err
			}
			if rh.Cycles != parts {
				return nil, fmt.Errorf("n=%d: got %d cycles want %d", n, rh.Cycles, parts)
			}
			cs, err := rn.newSub(n, g.M(), seed)
			if err != nil {
				return nil, err
			}
			rs, err := sublinear.Connectivity(cs, g)
			if err != nil {
				return nil, err
			}
			if rs.Components != parts {
				return nil, fmt.Errorf("baseline n=%d: got %d want %d", n, rs.Components, parts)
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
	c, err := rn.newHet(g.N, g.M(), 0, seed)
	if err != nil {
		return nil, err
	}
	oracle, err := core.BuildAPSPOracle(c, g)
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
