package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		GNMWeighted(50, 200, 3),
		GNM(30, 60, 5),
		New(4, nil, false),
		Cycles(60, 2, 7),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != g.N || got.M() != g.M() || got.Weighted != g.Weighted {
			t.Fatalf("dims mismatch: %d/%d vs %d/%d", got.N, got.M(), g.N, g.M())
		}
		want := map[int64]int64{}
		for _, e := range g.Edges {
			want[e.Key(g.N)] = e.W
		}
		for _, e := range got.Edges {
			if want[e.Key(g.N)] != e.W {
				t.Fatalf("edge %v lost or reweighted", e)
			}
		}
	}
}

// TestReadRejectsGarbage: Read takes outside input (hetrun -input), so
// malformed or lossy input is a "graph:" error — never a panic, and never a
// graph with edges silently dropped or its flag silently read as 0.
func TestReadRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"empty":               "",
		"bad magic":           "not-a-graph 3 1 0\n0 1 1\n",
		"truncated header":    "hetmpc-graph 3",
		"endpoint past n":     "hetmpc-graph 3 1 0\n0 9 1\n",
		"endpoint at n":       "hetmpc-graph 3 1 0\n3 1 1\n",
		"negative endpoint":   "hetmpc-graph 3 1 0\n-1 1 1\n",
		"non-positive weight": "hetmpc-graph 3 1 0\n0 1 0\n",
		"truncated edge list": "hetmpc-graph 3 2 0\n0 1 1\n",
		"negative n":          "hetmpc-graph -1 0 0\n",
		"negative m":          "hetmpc-graph 3 -1 0\n",
		"huge m":              "hetmpc-graph 10 999999999999999 0\n0 1 1\n",
		"weighted flag 2":     "hetmpc-graph 3 1 2\n0 1 1\n",
		"weighted flag -1":    "hetmpc-graph 3 1 -1\n0 1 1\n",
		"self-loop":           "hetmpc-graph 4 2 7\n0 0 1\n1 2 1\n",
		"repeated pair":       "hetmpc-graph 4 2 0\n1 2 1\n2 1 1\n",
		// The retired binary graph block: magic 0xA818, version 1, kind 1.
		"binary block": "\x18\xa8\x01\x01\x0d\x00\x00\x00",
	} {
		g, err := Read(strings.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), "graph:") {
			t.Errorf("%s: read %q as %v, %v; want a graph: error", name, in, g, err)
		}
	}
	// A valid graph still reads back whole.
	g, err := Read(strings.NewReader("hetmpc-graph 3 2 1\n0 2 1\n1 2 1\n"))
	if err != nil || g.N != 3 || g.M() != 2 || !g.Weighted {
		t.Fatalf("valid 3-vertex graph read back as %+v, %v", g, err)
	}
}
