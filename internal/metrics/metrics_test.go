package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hetmpc/internal/trace"
)

// TestNilRegistryIsInert pins the zero-overhead contract: a nil registry
// snapshots empty, and asking it to allocates nothing.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Snapshot() }); allocs != 0 {
		t.Fatalf("nil registry snapshot allocated %v per op, want 0", allocs)
	}
}

// value returns the sample of name carrying the label pair (label "" = the
// unlabelled sample).
func value(t *testing.T, samples []Sample, name, label, v string) Sample {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		if got, ok := s.Labels[label]; label == "" && len(s.Labels) == 0 || ok && got == v {
			return s
		}
	}
	t.Fatalf("snapshot lacks %s{%s=%q}", name, label, v)
	return Sample{}
}

// TestFoldInstruments: each instrument is its sum over the records — rounds
// and the silent subset count exchange records only, words and makespan
// every record, crashes land on the victim, and the per-machine families
// cover every slot any record carried.
func TestFoldInstruments(t *testing.T) {
	s := Fold([]trace.Round{
		{Kind: trace.KindExchange, Phase: "build", Messages: 3, Words: 5, Makespan: 3,
			SendWords: []int{0, 2, 3}, RecvWords: []int{5, 0, 0}, Busy: []float64{1.5, 0, 2}},
		{Kind: trace.KindExchange, Phase: "build", Makespan: 1},
		{Kind: trace.KindCheckpoint, Phase: "query", Makespan: 4, Checkpoints: 1, ReplicationWords: 6,
			Busy: []float64{0, 0.5, 0.5}},
		{Kind: trace.KindRecovery, Makespan: 5, Crashes: 1, Victim: 1, RecoveryRounds: 3, ReplayRounds: 2,
			Busy: []float64{0, 0, 1}},
	})
	for _, c := range []struct {
		name, label, v string
		want           int64
	}{
		{"mpc_rounds_total", "", "", 2},
		{"mpc_silent_rounds_total", "", "", 1},
		{"mpc_messages_total", "", "", 3},
		{"mpc_words_total", "", "", 5},
		{"fault_checkpoints_total", "", "", 1},
		{"fault_replication_words_total", "", "", 6},
		{"fault_recovery_rounds_total", "", "", 3},
		{"fault_replay_rounds_total", "", "", 2},
		{"fault_crashes_total", "machine", "small-1", 1},
		{"fault_crashes_total", "machine", "small-0", 0},
		{"mpc_send_words_total", "machine", "small-1", 3},
		{"mpc_recv_words_total", "machine", "large", 5},
		{"mpc_phase_rounds_total", "phase", "build", 2},
		{"mpc_phase_rounds_total", "phase", "query", 0},
		{"mpc_phase_words_total", "phase", "build", 5},
		{"mpc_phase_rounds_total", "phase", "", 0},
	} {
		if got := value(t, s, c.name, c.label, c.v).Value; got != c.want {
			t.Errorf("%s{%s=%q} = %d, want %d", c.name, c.label, c.v, got, c.want)
		}
	}
	if got := value(t, s, "mpc_makespan", "", "").Gauge; got != 13 {
		t.Errorf("mpc_makespan = %v, want 13 (every record's makespan)", got)
	}
	if got := value(t, s, "mpc_busy_time", "machine", "small-1").Gauge; got != 3.5 {
		t.Errorf("mpc_busy_time{small-1} = %v, want 3.5", got)
	}
	for _, x := range s {
		if x.Name == "fault_crashes_total" && x.Labels["machine"] == "large" {
			t.Error("the large machine has a crash counter; only small machines crash")
		}
	}
}

// TestHistogramBuckets pins mpc_round_time's le (at-or-below) bucket
// semantics, the overflow bucket, and the exact sum/count bookkeeping.
func TestHistogramBuckets(t *testing.T) {
	var rounds []trace.Round
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 1e6} {
		rounds = append(rounds, trace.Round{Kind: trace.KindExchange, Makespan: v})
	}
	h := value(t, Fold(rounds), "mpc_round_time", "", "")
	if h.Kind != KindHistogram || h.Count != 6 || h.Sum != 0.5+1+1.5+2+3+1e6 {
		t.Fatalf("histogram %+v", h)
	}
	if len(h.Buckets) != 21 || h.Buckets[20].Le != nil {
		t.Fatalf("want 20 bounds and a bare overflow bucket, got %d buckets", len(h.Buckets))
	}
	counts := map[int]int64{0: 2, 1: 2, 2: 1, 20: 1} // le-1: {0.5, 1}; le-2: {1.5, 2}; le-4: {3}; +Inf: {1e6}
	for i, b := range h.Buckets {
		if b.Count != counts[i] {
			t.Fatalf("bucket %d (le %v) count %d, want %d", i, b.Le, b.Count, counts[i])
		}
	}
}

// TestSnapshotDeterministic: the snapshot is sorted by name then label —
// machine labels compare as strings, so small-10 precedes small-2 — and
// folding the same records twice writes the same bytes under the schema
// header.
func TestSnapshotDeterministic(t *testing.T) {
	busy := make([]float64, 12)
	rounds := []trace.Round{
		{Kind: trace.KindExchange, Phase: "zz", Busy: busy},
		{Kind: trace.KindExchange, Phase: "aa", Busy: busy},
	}
	var bufA, bufB bytes.Buffer
	if err := WriteSamples(&bufA, Fold(rounds)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamples(&bufB, Fold(rounds)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("the same records wrote different bytes")
	}
	var file struct {
		Schema  int      `json:"schema"`
		Metrics []Sample `json:"metrics"`
	}
	if err := json.Unmarshal(bufA.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", file.Schema, SchemaVersion)
	}
	var order []string
	for _, s := range file.Metrics {
		key := s.Name
		for _, l := range []string{"machine", "phase"} {
			if v, ok := s.Labels[l]; ok {
				key += "\x00" + l + "\x00" + v
			}
		}
		order = append(order, key)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("snapshot not sorted at %d: %q then %q", i, order[i-1], order[i])
		}
	}
	want := []string{"large", "small-0", "small-1", "small-10", "small-2"}
	var got []string
	for _, s := range file.Metrics {
		if s.Name == "mpc_busy_time" && len(got) < len(want) {
			got = append(got, s.Labels["machine"])
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("machine label order %v, want %v", got, want)
	}
}

// TestExpBuckets pins the geometric layout and the argument guard.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0,2,3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// TestWriteJSONNil: a nil registry still writes a valid, schema-stamped,
// empty snapshot (the CLIs can dump unconditionally).
func TestWriteJSONNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": 1`) {
		t.Fatalf("missing schema header: %s", buf.String())
	}
}
