// Command hettrace analyzes hetmpc observability artifacts: the per-round
// trace streams (-traceout *.jsonl) and the BENCH_<exp>.json artifacts
// hetbench writes (DESIGN.md §12).
//
// Usage:
//
//	hettrace summarize trace.jsonl      # critical-path + phase-share table
//	hettrace summarize BENCH_e14.json   # same table from an artifact's
//	                                    # embedded trace summary
//	hettrace export trace.jsonl         # Chrome trace-event JSON to stdout;
//	                                    # load in Perfetto (ui.perfetto.dev)
//	hettrace export -o t.json trace.jsonl
//	hettrace diff OLD.json NEW.json     # per-phase makespan and wire-byte
//	                                    # deltas between two BENCH artifacts;
//	                                    # exits 1 when NEW regresses OLD
//	hettrace diff -threshold 5 OLD.json NEW.json
//	                                    # tolerate up to 5% growth
//
// Exit codes: 0 ok (diff: no regression), 1 regression, 2 bad input — which
// includes artifacts or streams whose schema version this build does not
// speak (the "schema" field exists so readers refuse rather than
// mis-attribute renamed fields).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"hetmpc/internal/exp"
	"hetmpc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  hettrace summarize FILE             critical-path + phase-share table of a
                                      trace stream (.jsonl) or BENCH artifact
  hettrace export [-o OUT] FILE       render a trace stream as Chrome
                                      trace-event JSON (Perfetto-loadable)
  hettrace diff [-threshold PCT] OLD NEW
                                      compare two BENCH artifacts; exit 1 when
                                      NEW's makespan or wire bytes grow more
                                      than PCT percent (default 0)
`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "summarize":
		return cmdSummarize(args[1:], stdout, stderr)
	case "export":
		return cmdExport(args[1:], stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "hettrace: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

// loadRounds reads a -traceout JSONL stream ("-" = stdin).
func loadRounds(path string) ([]trace.Round, error) {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	rounds, err := trace.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rounds, nil
}

// loadArtifact reads a BENCH_<exp>.json artifact, refusing schemas this
// build does not speak (pre-schema artifacts report version 0).
func loadArtifact(path string) (*exp.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a exp.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != exp.SchemaVersion {
		return nil, fmt.Errorf("%s: artifact schema %d, this hettrace speaks %d — regenerate with the matching hetbench",
			path, a.Schema, exp.SchemaVersion)
	}
	return &a, nil
}

// summaryOf resolves FILE into a phase summary: a JSONL trace stream is
// summarized from its raw records, a BENCH artifact contributes its embedded
// trace summary.
func summaryOf(path string) (*trace.Summary, error) {
	rounds, jerr := loadRounds(path)
	if jerr == nil {
		return trace.Summarize(rounds), nil
	}
	if !errors.Is(jerr, trace.ErrSchema) {
		return nil, jerr
	}
	// Not a trace stream; try the artifact shape.
	a, aerr := loadArtifact(path)
	if aerr != nil {
		return nil, fmt.Errorf("%s: neither a trace stream (%w) nor a readable artifact (%w)", path, jerr, aerr)
	}
	if a.Trace == nil {
		return nil, fmt.Errorf("%s: artifact has no trace summary (regenerate under hetbench -trace)", path)
	}
	return &trace.Summary{
		Rounds:   a.Trace.Rounds,
		Words:    a.Trace.Words,
		Makespan: a.Trace.Makespan,
		Phases:   a.Trace.Phases,
	}, nil
}

func cmdSummarize(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: hettrace summarize FILE")
		return 2
	}
	s, err := summaryOf(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "hettrace:", err)
		return 2
	}
	printSummary(stdout, s)
	return 0
}

// printSummary renders the critical-path table: one row per phase with its
// rounds, how many of them moved no words, its makespan share and bottleneck
// machine, phases in first-seen order.
func printSummary(w io.Writer, s *trace.Summary) {
	fmt.Fprintf(w, "%d exchange rounds, %d words, makespan %.6g\n", s.Rounds, s.Words, s.Makespan)
	fmt.Fprintf(w, "%-44s %7s %6s %12s %12s %7s  %s\n", "phase", "rounds", "empty", "words", "makespan", "share", "bottleneck")
	for _, p := range s.Phases {
		name := p.Phase
		if name == "" {
			name = "(untagged)"
		}
		fmt.Fprintf(w, "%-44s %7d %6d %12d %12.6g %6.1f%%  %s (%.0f%% of phase busy)\n",
			name, p.Rounds, p.EmptyRounds, p.Words, p.Makespan, 100*p.Share, trace.MachineName(p.Top), 100*p.TopShare)
	}
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hettrace export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hettrace export [-o OUT] TRACE.jsonl")
		return 2
	}
	rounds, err := loadRounds(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hettrace:", err)
		return 2
	}
	w := io.Writer(stdout)
	var closeFn func() error
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "hettrace:", err)
			return 2
		}
		w, closeFn = f, f.Close
	}
	if err := trace.WritePerfetto(w, rounds); err != nil {
		fmt.Fprintln(stderr, "hettrace:", err)
		return 2
	}
	if closeFn != nil {
		if err := closeFn(); err != nil {
			fmt.Fprintln(stderr, "hettrace:", err)
			return 2
		}
	}
	return 0
}

// deltaRow is one compared quantity of a diff.
type deltaRow struct {
	name     string
	old, new float64
	gate     bool // counts toward the regression verdict
}

// pctDelta is the relative growth in percent; growth from zero is +Inf
// (always a regression), zero-to-zero is 0.
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (new - old) / old
}

// diffArtifacts builds the comparison rows: the gated totals (makespan, wire
// bytes), the informational totals, and — when both artifacts carry a trace
// — the per-phase makespan rows (gated too: a phase regression is a
// regression even if another phase's win hides it in the total).
func diffArtifacts(old, cur *exp.Artifact) []deltaRow {
	rows := []deltaRow{
		{"makespan", old.Model.Makespan, cur.Model.Makespan, true},
		{"wire_bytes", float64(old.Model.WireBytes), float64(cur.Model.WireBytes), true},
		{"rounds", float64(old.Model.Rounds), float64(cur.Model.Rounds), false},
		{"messages", float64(old.Model.Messages), float64(cur.Model.Messages), false},
		{"total_words", float64(old.Model.TotalWords), float64(cur.Model.TotalWords), false},
	}
	if old.Trace != nil && cur.Trace != nil {
		oldPhases := map[string]trace.PhaseStat{}
		for _, p := range old.Trace.Phases {
			oldPhases[p.Phase] = p
		}
		for _, p := range cur.Trace.Phases {
			name := p.Phase
			if name == "" {
				name = "(untagged)"
			}
			rows = append(rows, deltaRow{"phase " + name, oldPhases[p.Phase].Makespan, p.Makespan, true})
		}
	}
	return rows
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hettrace diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "regression threshold in percent: exit 1 when a gated quantity grows more than this")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: hettrace diff [-threshold PCT] OLD.json NEW.json")
		return 2
	}
	old, err := loadArtifact(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hettrace:", err)
		return 2
	}
	cur, err := loadArtifact(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "hettrace:", err)
		return 2
	}
	if old.Exp != cur.Exp {
		fmt.Fprintf(stderr, "hettrace: warning: comparing different experiments (%s vs %s)\n", old.Exp, cur.Exp)
	}
	regressed := false
	fmt.Fprintf(stdout, "%-44s %14s %14s %9s\n", "quantity", "old", "new", "delta")
	for _, r := range diffArtifacts(old, cur) {
		d := pctDelta(r.old, r.new)
		mark := ""
		if r.gate && d > *threshold {
			regressed = true
			mark = "  REGRESSION"
		}
		fmt.Fprintf(stdout, "%-44s %14.6g %14.6g %+8.2f%%%s\n", r.name, r.old, r.new, d, mark)
	}
	if regressed {
		fmt.Fprintf(stdout, "regression: a gated quantity grew more than %g%%\n", *threshold)
		return 1
	}
	fmt.Fprintln(stdout, "ok: no regression")
	return 0
}
