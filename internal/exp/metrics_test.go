package exp

import (
	"encoding/json"
	"testing"

	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// TestSetMetricsArtifact: under Env.Metrics (hetbench -metrics) an ordinary
// experiment's artifact gains the registry snapshot,
// the run-wide aggregate counters reconcile exactly with the summed model
// stats (one registry shared by every cluster of the run), the artifact
// keeps its baseline name (metrics are observational), and the field
// marshals under the stable "metrics" key.
func TestSetMetricsArtifact(t *testing.T) {
	art, _, err := Env{Metrics: true}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != SchemaVersion {
		t.Fatalf("artifact schema %d, want %d", art.Schema, SchemaVersion)
	}
	if len(art.Metrics) == 0 {
		t.Fatal("artifact has no metrics under Env.Metrics")
	}
	find := func(name string) metrics.Sample {
		for _, s := range art.Metrics {
			if s.Name == name && len(s.Labels) == 0 {
				return s
			}
		}
		t.Fatalf("snapshot lacks %q", name)
		return metrics.Sample{}
	}
	if got := find("mpc_words_total").Value; got != art.Model.TotalWords {
		t.Fatalf("mpc_words_total %d != model total words %d", got, art.Model.TotalWords)
	}
	if got := find("mpc_rounds_total").Value; got != int64(art.Model.Rounds) {
		t.Fatalf("mpc_rounds_total %d != model rounds %d", got, art.Model.Rounds)
	}
	if got := find("mpc_messages_total").Value; got != art.Model.Messages {
		t.Fatalf("mpc_messages_total %d != model messages %d", got, art.Model.Messages)
	}
	// The gauges cover every cluster too. E14's per-word costs are
	// integers, so the two groupings of the float sum agree exactly.
	if got := find("mpc_makespan").Gauge; art.Model.Clusters < 2 || got != art.Model.Makespan {
		t.Fatalf("mpc_makespan %v != model makespan %v over %d clusters", got, art.Model.Makespan, art.Model.Clusters)
	}
	// Metering is observational: no override tag, baseline name preserved.
	if art.Profile != "" || art.Faults != "" || art.Placement != "" || art.Transport != "" {
		t.Fatalf("metrics tagged the artifact: %+v", art)
	}
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["metrics"].([]any); !ok {
		t.Fatalf("marshaled artifact lacks the metrics array: %s", raw[:min(len(raw), 200)])
	}
	if got, ok := m["schema"].(float64); !ok || int(got) != SchemaVersion {
		t.Fatalf("marshaled artifact schema %v", m["schema"])
	}
}

// TestUnmeteredArtifactOmitsMetrics mirrors the trace-key guarantee: without
// the toggle the wire format has no "metrics" key at all.
func TestUnmeteredArtifactOmitsMetrics(t *testing.T) {
	art, _, err := Env{}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Metrics != nil {
		t.Fatal("unmetered run produced a metrics snapshot")
	}
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["metrics"]; ok {
		t.Fatalf("unmetered artifact carries a metrics key: %s", raw)
	}
}

// TestRunFullReturnsRounds: Run hands back the raw concatenated trace —
// the record stream -traceout exports — and its totals match the artifact's
// own trace summary.
func TestRunFullReturnsRounds(t *testing.T) {
	art, rounds, err := Env{Trace: true}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("traced run returned no rounds")
	}
	if art.Trace == nil {
		t.Fatal("artifact has no trace summary")
	}
	var words int64
	exch := 0
	for _, r := range rounds {
		words += r.Words
		if r.Kind == trace.KindExchange {
			exch++
		}
	}
	if words != art.Trace.Words {
		t.Fatalf("raw rounds carry %d words, summary says %d", words, art.Trace.Words)
	}
	if exch != art.Trace.Rounds {
		t.Fatalf("raw rounds have %d exchange records, summary says %d", exch, art.Trace.Rounds)
	}
}
