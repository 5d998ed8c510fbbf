package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/exp"
	"hetmpc/internal/trace"
)

// writeArtifact marshals a to a temp BENCH file and returns the path.
func writeArtifact(t *testing.T, a *exp.Artifact) string {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleArtifact() *exp.Artifact {
	a := &exp.Artifact{Schema: exp.SchemaVersion, Exp: "e14", Seed: 7}
	a.Model.Clusters = 2
	a.Model.Rounds = 100
	a.Model.Messages = 4000
	a.Model.TotalWords = 50000
	a.Model.Makespan = 1.25e6
	a.Model.WireBytes = 800000
	a.Trace = &exp.TraceStats{
		Clusters: 2, Rounds: 100, Words: 50000, Makespan: 1.25e6,
		Phases: []trace.PhaseStat{
			{Phase: "build", Rounds: 60, Words: 30000, Makespan: 7.5e5, Share: 0.6, Top: trace.Large, TopShare: 0.5},
			{Phase: "query", Rounds: 40, EmptyRounds: 3, Words: 20000, Makespan: 5.0e5, Share: 0.4, Top: 1, TopShare: 0.7},
		},
	}
	return a
}

// sampleTracePath writes a small timeline as a -traceout JSONL stream.
func sampleTracePath(t *testing.T) string {
	t.Helper()
	rounds := []trace.Round{
		{Round: 1, Phase: "build", Kind: trace.KindExchange, Messages: 4, Words: 40,
			MaxTime: 10, Makespan: 10, Argmax: trace.Large, Victim: trace.None,
			SendWords: []int{20, 10, 10}, RecvWords: []int{20, 10, 10}, Busy: []float64{10, 5, 5}},
		{Round: 2, Phase: "query", Kind: trace.KindExchange, Messages: 2, Words: 20,
			MaxTime: 8, Makespan: 8, Argmax: 0, Victim: trace.None,
			SendWords: []int{0, 10, 10}, RecvWords: []int{0, 10, 10}, Busy: []float64{0, 8, 4}},
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rounds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI drives run() and captures the streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestDiffSelfIsZero pins the CI self-comparison gate: an artifact diffed
// against itself reports zero delta on every row and exits 0 at the
// strictest threshold.
func TestDiffSelfIsZero(t *testing.T) {
	path := writeArtifact(t, sampleArtifact())
	code, out, errs := runCLI("diff", path, path)
	if code != 0 {
		t.Fatalf("self-diff exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(out, "ok: no regression") {
		t.Fatalf("self-diff verdict missing: %s", out)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("self-diff flagged a regression: %s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "%") && !strings.Contains(line, "+0.00%") {
			t.Fatalf("non-zero delta in self-diff: %q", line)
		}
	}
}

// TestDiffRegressionGate: growth beyond the threshold exits 1 and names the
// row; raising the threshold over the growth passes.
func TestDiffRegressionGate(t *testing.T) {
	old := writeArtifact(t, sampleArtifact())
	worse := sampleArtifact()
	worse.Model.Makespan *= 1.10
	worse.Trace.Makespan = worse.Model.Makespan
	worse.Trace.Phases[0].Makespan *= 1.16667
	cur := writeArtifact(t, worse)

	code, out, _ := runCLI("diff", old, cur)
	if code != 1 {
		t.Fatalf("10%% makespan growth at threshold 0: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression rows unmarked: %s", out)
	}
	code, out, _ = runCLI("diff", "-threshold", "20", old, cur)
	if code != 0 {
		t.Fatalf("10%% growth under threshold 20: exit %d\n%s", code, out)
	}
}

// TestDiffPhaseRegressionGated: a phase-level regression fails the gate even
// when the totals are unchanged (one phase's win hides the other's loss).
func TestDiffPhaseRegressionGated(t *testing.T) {
	old := writeArtifact(t, sampleArtifact())
	shifted := sampleArtifact()
	shifted.Trace.Phases[0].Makespan += 1e5 // build regresses...
	shifted.Trace.Phases[1].Makespan -= 1e5 // ...query's win hides it in the total
	cur := writeArtifact(t, shifted)
	code, out, _ := runCLI("diff", old, cur)
	if code != 1 {
		t.Fatalf("hidden phase regression passed: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "phase build") {
		t.Fatalf("regressed phase not named: %s", out)
	}
}

// TestDiffSchemaRefusal: mismatched artifact schemas exit 2 before any
// comparison (the satellite acceptance criterion).
func TestDiffSchemaRefusal(t *testing.T) {
	good := writeArtifact(t, sampleArtifact())
	stale := sampleArtifact()
	stale.Schema = exp.SchemaVersion + 1
	bad := writeArtifact(t, stale)
	code, _, errs := runCLI("diff", good, bad)
	if code != 2 {
		t.Fatalf("schema mismatch exit %d", code)
	}
	if !strings.Contains(errs, "schema") {
		t.Fatalf("refusal does not name the schema: %q", errs)
	}
	// Pre-schema artifacts (no schema field at all) are refused the same way.
	preSchema := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(preSchema, []byte(`{"exp":"e14","seed":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI("diff", good, preSchema); code != 2 {
		t.Fatalf("pre-schema artifact accepted: exit %d", code)
	}
}

// TestSummarizeStream: a raw JSONL timeline renders the phase table.
func TestSummarizeStream(t *testing.T) {
	code, out, errs := runCLI("summarize", sampleTracePath(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{"2 exchange rounds, 60 words", "build", "query", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary lacks %q:\n%s", want, out)
		}
	}
}

// TestSummarizeArtifact: a BENCH artifact's embedded summary renders the
// same table shape.
func TestSummarizeArtifact(t *testing.T) {
	code, out, errs := runCLI("summarize", writeArtifact(t, sampleArtifact()))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(out, "100 exchange rounds, 50000 words") || !strings.Contains(out, "build") {
		t.Fatalf("artifact summary wrong:\n%s", out)
	}
	// The empty-round column: build had none, query 3 of its 40.
	for _, row := range [][]string{{"phase", "rounds", "empty"}, {"build", "60", "0"}, {"query", "40", "3"}} {
		if !slices.ContainsFunc(strings.Split(out, "\n"), func(line string) bool {
			f := strings.Fields(line)
			return len(f) >= 3 && slices.Equal(f[:3], row)
		}) {
			t.Fatalf("artifact summary lacks the row %v:\n%s", row, out)
		}
	}
}

// TestExportPerfetto: export renders loadable trace-event JSON.
func TestExportPerfetto(t *testing.T) {
	out := filepath.Join(t.TempDir(), "perfetto.json")
	code, _, errs := runCLI("export", "-o", out, sampleTracePath(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema int `json:"schema"`
		Events []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if f.Schema != trace.SchemaVersion || len(f.Events) == 0 {
		t.Fatalf("export shape wrong: schema %d, %d events", f.Schema, len(f.Events))
	}
}

// TestUsageAndUnknown: bare and unknown invocations exit 2 with usage.
func TestUsageAndUnknown(t *testing.T) {
	if code, _, errs := runCLI(); code != 2 || !strings.Contains(errs, "usage") {
		t.Fatalf("bare invocation: exit %d, stderr %q", code, errs)
	}
	if code, _, _ := runCLI("frobnicate"); code != 2 {
		t.Fatal("unknown command accepted")
	}
	if code, out, _ := runCLI("help"); code != 0 || !strings.Contains(out, "summarize") {
		t.Fatalf("help: exit %d", code)
	}
}
