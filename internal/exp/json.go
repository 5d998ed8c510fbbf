package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"hetmpc/internal/metrics"
	"hetmpc/internal/mpc"
	"hetmpc/internal/trace"
)

// SchemaVersion is the version stamped into every BENCH artifact's "schema"
// field. Readers (hettrace diff in particular) refuse artifacts whose schema
// does not match theirs instead of mis-attributing renamed or re-grouped
// fields. Bump it on any incompatible change to Artifact, ModelStats or
// TraceStats; additive omitempty fields do not need a bump. Version 2
// dropped the host-clock fields of version 1: an artifact is a pure
// function of (experiment, seed, Env), and the host clock lives in perf/.
const SchemaVersion = 2

// ModelStats sums the in-model communication metrics of every cluster an
// experiment ran (one experiment typically builds several clusters: the
// baseline, heterogeneous and superlinear regimes of each row).
type ModelStats struct {
	Clusters int `json:"clusters"`
	// The summed mpc.Stats (Stats.Add: additive fields summed, maxima
	// maxed), embedded so its fields and JSON tags are the artifact's.
	// WireBytes sits beside TotalWords (the modeled cost) deliberately: the
	// model numbers must not move when the wire turns on.
	mpc.Stats
}

func (m *ModelStats) add(s mpc.Stats) {
	m.Clusters++
	m.Stats = m.Stats.Add(s)
}

// TraceStats is the per-phase critical-path summary of an experiment's
// traced clusters (DESIGN.md §9): trace.Summarize over every traced
// cluster's timeline, concatenated in build order. Conservation is part of
// the schema — total_words equals the model total exactly, and makespan
// sums each cluster's per-round contributions in order and then the
// per-cluster subtotals in build order (the same grouping ModelStats.add
// uses), so it is bit-identical to the model makespan whenever every
// cluster of the run was traced (E26, E34, and any run under the -trace
// flag). TestSetTraceArtifact asserts both; the committed bench/
// bytes carry them for those experiments.
type TraceStats struct {
	Clusters int               `json:"clusters"` // clusters that carried a collector
	Rounds   int               `json:"rounds"`
	Words    int64             `json:"total_words"`
	Makespan float64           `json:"makespan"`
	Phases   []trace.PhaseStat `json:"phases"`
}

// Table renders the per-phase summary as a text table (hetbench -trace).
func (ts *TraceStats) Table(title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"phase", "rounds", "words", "makespan", "share", "top machine", "top share"},
	}
	for _, p := range ts.Phases {
		name := p.Phase
		if name == "" {
			name = "(untagged)"
		}
		t.AddRow(name, p.Rounds, p.Words, p.Makespan, p.Share, trace.MachineName(p.Top), p.TopShare)
	}
	return t
}

// Artifact is one machine-readable bench record: the experiment's table plus
// the measured model metrics (rounds, words, makespan). It is the schema of
// the BENCH_<exp>.json files and carries the model clock only, so the same
// (experiment, seed, Env) marshals to the same bytes on any host, Go version
// or GOMAXPROCS — TestExperimentsExecute pins bench/ to the byte.
type Artifact struct {
	// Schema is the artifact schema version (SchemaVersion); hettrace diff
	// refuses to compare artifacts whose schemas differ from its own.
	Schema int    `json:"schema"`
	Exp    string `json:"exp"`
	Seed   uint64 `json:"seed"`
	// Profile is the cross-cutting machine-profile spec the clusters were
	// built under (Env.Profile / hetbench -profile); empty = the canonical
	// uniform cluster. It distinguishes profiled artifacts from the
	// committed uniform baseline in bench/.
	Profile string `json:"profile,omitempty"`
	// Faults is the cross-cutting fault-plan spec (Env.Faults / hetbench
	// -faults); empty = the reliable cluster. Like Profile it re-names the
	// artifact so faulted runs never clobber the committed baseline.
	Faults string `json:"faults,omitempty"`
	// Placement is the cross-cutting placement-policy spec (Env.Placement /
	// hetbench -placement); empty = the capacity-proportional default.
	// Like Profile and Faults it re-names the artifact.
	Placement string `json:"placement,omitempty"`
	// Transport is the cross-cutting Exchange-transport spec (Env.Transport /
	// hetbench -transport); empty = the in-process memcpy path. Conformance
	// (DESIGN.md §11) guarantees the model numbers are bit-identical either
	// way, but the artifact gains a nonzero wire_bytes, so it is re-named
	// like the other overrides to protect the committed baseline.
	Transport string     `json:"transport,omitempty"`
	Model     ModelStats `json:"model"`
	// Trace is the phase-timeline summary, present when at least one
	// cluster of the run carried a trace collector — experiments that
	// trace themselves (E26, E34) and any experiment run under
	// Env.Trace (hetbench -trace). Tracing observes without perturbing, so
	// a traced artifact's model numbers are bit-identical to the untraced
	// baseline and the artifact name does not change.
	Trace *TraceStats `json:"trace,omitempty"`
	// Metrics is the sorted registry snapshot of the run, present under
	// Env.Metrics (hetbench -metrics): one fresh registry is shared by every
	// cluster of the run, so every instrument — gauges included — is the
	// experiment-wide total.
	// Like tracing, metrics observe without perturbing — the model numbers
	// and the artifact name are unchanged.
	Metrics []metrics.Sample `json:"metrics,omitempty"`
	Table   *Table           `json:"table"`
}

// Marshal returns the artifact's file content: indented JSON and a final
// newline.
func (a *Artifact) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the artifact as BENCH_<exp>.json under dir (created if
// missing) and returns the path. Artifacts produced under a profile,
// fault-plan, placement or transport override are written as
// BENCH_<exp>@<profile>.json / BENCH_<exp>@faults=<plan>.json /
// BENCH_<exp>@place=<policy>.json / BENCH_<exp>@wire=<transport>.json so
// they never clobber the committed baseline.
func (a *Artifact) WriteFile(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sanitize := func(s string) string {
		return strings.NewReplacer(":", "-", "+", "_", "=", "~", ",", ".").Replace(s)
	}
	name := "BENCH_" + a.Exp
	if a.Profile != "" {
		name += "@" + sanitize(a.Profile)
	}
	if a.Faults != "" {
		name += "@faults=" + sanitize(a.Faults)
	}
	if a.Placement != "" {
		name += "@place=" + sanitize(a.Placement)
	}
	if a.Transport != "" {
		name += "@wire=" + sanitize(a.Transport)
	}
	path := filepath.Join(dir, name+".json")
	data, err := a.Marshal()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
