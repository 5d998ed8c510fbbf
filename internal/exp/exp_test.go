package exp

import (
	"bytes"
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

// TestExperimentsExecute runs every experiment end to end (each validates
// its own outputs against the exact references and returns an error on any
// mismatch). The heavy ones are skipped with -short. Runs share no state, so
// the subtests run in parallel.
func TestExperimentsExecute(t *testing.T) {
	light := map[string]bool{"e4": true, "e6": true, "e10": true, "e11": true, "e15": true}
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
		})
	}
}
