package exp

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/core"
	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// TestChecksRejectWrongAnswers feeds the validators' checks a deliberately
// wrong result, and the right one, for each problem whose check is more
// than a graph.Check* call: a cell emits no row from a wrong answer only if
// its check says no to one.
func TestChecksRejectWrongAnswers(t *testing.T) {
	gW := graph.ConnectedGNM(24, 60, 3, true)
	tree, weight := graph.KruskalMSF(gW)
	two := graph.Cycles(20, 2, 3)
	cut := graph.PlantedCut(24, 60, 2, 3, false)
	gU := graph.ConnectedGNM(24, 60, 3, false)
	proper := make([]int, gU.N) // vertex v coloured v: proper, palette n
	for v := range proper {
		proper[v] = v
	}
	clash := slices.Clone(proper)
	clash[gU.Edges[0].U] = clash[gU.Edges[0].V]

	for _, tc := range []struct {
		name         string
		right, wrong error
	}{
		{"forest weight", forest(gW, tree, weight), forest(gW, tree, weight+1)},
		{"forest edges", forest(gW, tree, weight), forest(gW, append(slices.Clone(tree[1:]), tree[0], tree[0]), weight)},
		{"components", components(two, 2, "components"), components(two, 1, "components")},
		{"min cut", cutValue(cut, graph.StoerWagner(cut)), cutValue(cut, graph.StoerWagner(cut)+1)},
		{"apsp stretch", oracleSpanner(gU, &core.APSPOracle{Spanner: gU, Stretch: 1}, 7),
			oracleSpanner(gU, &core.APSPOracle{Spanner: graph.New(gU.N, gU.Edges[1:], false), Stretch: 1}, 7)},
		{"coloring clash", listColored(gU, &core.ColoringResult{Colors: proper, MaxColor: gU.N - 1, ConflictEdges: 1}),
			listColored(gU, &core.ColoringResult{Colors: clash, MaxColor: gU.N - 1, ConflictEdges: 1})},
		{"coloring no conflict edge", nil,
			listColored(gU, &core.ColoringResult{Colors: proper, MaxColor: gU.N - 1})},
	} {
		if tc.right != nil {
			t.Errorf("%s: the right answer fails: %v", tc.name, tc.right)
		}
		if tc.wrong == nil {
			t.Errorf("%s: a wrong answer passes", tc.name)
		}
	}

	// checked turns a failed check into a validation error.
	alg := func(*mpc.Cluster, *graph.Graph) (int, error) { return 1, nil }
	_, err := checked(two, alg, func(got int) error { return components(two, got, "components") })(nil)
	if err == nil || !strings.HasPrefix(err.Error(), "validation: ") {
		t.Errorf("checked: err = %v, want a validation error", err)
	}
	runErr := errors.New("run failed")
	failing := func(*mpc.Cluster, *graph.Graph) (int, error) { return 0, runErr }
	if _, err := checked(two, failing, func(int) error { return nil })(nil); err != runErr {
		t.Errorf("checked: err = %v, want the run's own error", err)
	}
}

// TestCallTable: every name is listed once and found by LookupCall, an
// unknown one is not, and Table1Calls' twelve rows come from it in pairs,
// sublinear then heterogeneous, each row's Config the template with only
// NoLarge taken from the row's entry.
func TestCallTable(t *testing.T) {
	names := CallNames()
	for i, name := range names {
		if slices.Index(names, name) != i {
			t.Errorf("%s is listed twice", name)
		}
		if call, ok := LookupCall(name); !ok || call.Name != name || call.Run == nil {
			t.Errorf("LookupCall(%q) = %q, %v", name, call.Name, ok)
		}
	}
	if _, ok := LookupCall("nope"); ok {
		t.Error("LookupCall found an unknown name")
	}
	base := mpc.Config{N: 64, M: 256, Gamma: 0.4, F: 0.25, K: 9, CSmall: 7, CLarge: 5,
		LogExpSmall: 2, LogExpLarge: 1, NoLarge: true, Seed: 1}
	rows := Table1Calls(base)
	if len(rows) != 12 {
		t.Fatalf("%d Table-1 rows, want 12", len(rows))
	}
	for i, row := range rows {
		prefix := []string{"sublinear.", "core."}[i%2]
		if !strings.HasPrefix(row.Name, prefix) || row.Config.NoLarge != (i%2 == 0) {
			t.Errorf("row %d: %s with NoLarge %v", i, row.Name, row.Config.NoLarge)
		}
		if entry, _ := LookupCall(table1Rows[i][1]); row.Config.NoLarge != entry.NoLarge {
			t.Errorf("%s: NoLarge %v, its entry %s says %v", row.Name, row.Config.NoLarge, entry.Name, entry.NoLarge)
		}
		cfg := row.Config
		cfg.NoLarge = base.NoLarge
		if cfg != base {
			t.Errorf("%s: Config %+v, want the template %+v but for NoLarge", row.Name, row.Config, base)
		}
	}
}
