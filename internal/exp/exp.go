// Package exp is the experiment harness: it regenerates the paper's Table 1
// and the figure-style sweeps listed in DESIGN.md §2 (E1..E25), printing
// measured round counts, output quality and paper-predicted complexities
// side by side. E17–E25 go beyond the paper's uniform model: E17–E19 sweep
// heterogeneous machine profiles (capacity skew, stragglers, fast/slow
// cohorts; DESIGN.md §6) and report the simulated makespan next to the
// round counts, E20–E22 sweep the fault-injection and recovery subsystem
// (DESIGN.md §7), and E23–E25 sweep the placement policies and speculation
// (DESIGN.md §8). It is consumed by cmd/hetbench and by the top-level
// benchmarks in bench_test.go; EXPERIMENTS.md records representative
// output. Env is the one entry point: Env.Run executes an experiment by id,
// and a non-zero Env rebuilds it under a chosen profile, fault plan,
// placement policy or transport, traced or metered.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment artifact: a titled grid of cells. The JSON
// field names are part of the BENCH_*.json wire format.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, " | "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (no notes).
func (t *Table) RenderCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}
