package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x,y", "q\"z")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a ", "bb", "2.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	tab.RenderCSV(&buf)
	csv := buf.String()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""z"`) {
		t.Fatalf("CSV escaping broken:\n%s", csv)
	}
}

// TestAllExperimentsRegistered: the registry is one ordered table, so every
// id must be unique (a duplicate would shadow the later entry) and carry an
// experiment.
func TestAllExperimentsRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.fn == nil {
			t.Fatalf("experiment %q registered without a function", e.id)
		}
		if seen[e.id] {
			t.Fatalf("experiment id %q registered twice", e.id)
		}
		seen[e.id] = true
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n run:       %s\n committed: %s", i+1, gl, wl)
		}
	}
	return "no differing line"
}

// TestExperimentsExecute runs every experiment end to end (each validates
// its own outputs against the exact references and returns an error on any
// mismatch) and pins what it produced twice over. The artifact is a pure
// function of (id, seed, Env), so its marshalled bytes must equal the
// committed bench/BENCH_<id>.json exactly — tables, model stats and trace
// summaries gated to the byte for every later change to lean on. And docs
// tables are never pasted from elsewhere: where EXPERIMENTS.md quotes an
// experiment (its "== title ==" line occurs there), every rendered line
// must occur there too, modulo trailing whitespace. The heavy experiments
// are skipped with -short. Runs share no state, so the subtests run in
// parallel.
func TestExperimentsExecute(t *testing.T) {
	light := map[string]bool{"e4": true, "e6": true, "e10": true, "e11": true, "e15": true}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	docLines := map[string]bool{}
	for _, l := range strings.Split(string(doc), "\n") {
		docLines[strings.TrimRight(l, " \t\r")] = true
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !light[id] {
				t.Skip("heavy experiment skipped in -short mode")
			}
			t.Parallel()
			art, _, err := Env{}.Run(id, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(art.Table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			var buf bytes.Buffer
			art.Table.Render(&buf)
			t.Log("\n" + buf.String())

			got, err := art.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			file := "bench/BENCH_" + id + ".json"
			want, err := os.ReadFile("../../" + file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s is not what this run produces; first difference at %s\nif the change is intended, regenerate: go run ./cmd/hetbench -json -out bench",
					file, firstDiff(got, want))
			}

			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			if !docLines[lines[0]] {
				return // EXPERIMENTS.md does not quote this table
			}
			for _, l := range lines[1:] {
				if l = strings.TrimRight(l, " "); !docLines[l] {
					t.Errorf("EXPERIMENTS.md quotes %q but lacks its line:\n%s", lines[0], l)
				}
			}
		})
	}
}
