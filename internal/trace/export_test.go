package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// sampleRounds is a small timeline exercising every record kind and both
// busy-vector shapes.
func sampleRounds() []Round {
	return []Round{
		{Round: 1, Phase: "sort/route", Kind: KindExchange, Messages: 3, Words: 10,
			WireBytes: 128, Latency: 1, MaxTime: 2, Makespan: 3, Argmax: Large, Victim: None,
			SendWords: []int{10, 0, 0}, RecvWords: []int{0, 5, 5}, Busy: []float64{2, 1, 1}},
		{Round: 2, Phase: "sort", Kind: KindCheckpoint, Makespan: 2, Argmax: 0, Victim: None,
			ReplicationWords: 64, Checkpoints: 1, Busy: []float64{0, 2, 0}},
		{Round: 2, Phase: "sort", Kind: KindRecovery, Makespan: 4, Argmax: None, Victim: 1,
			Crashes: 1, RecoveryRounds: 2},
		{Round: 3, Phase: "", Kind: KindExchange, Latency: 1, Makespan: 1, Argmax: None, Victim: None},
	}
}

// TestJSONLRoundTrip: WriteJSONL → ReadJSONL reproduces the records exactly.
func TestJSONLRoundTrip(t *testing.T) {
	rounds := sampleRounds()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rounds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rounds) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rounds)
	}
}

// TestReadJSONLSchemaRefusal: wrong schema version, wrong format tag, and an
// empty file all fail wrapping ErrSchema; a garbage body line fails with a
// line-numbered error.
func TestReadJSONLSchemaRefusal(t *testing.T) {
	for name, input := range map[string]string{
		"wrong version": `{"schema":99,"format":"hetmpc-trace"}`,
		"wrong format":  `{"schema":1,"format":"spans"}`,
		"not json":      `makespan,words`,
		"empty":         "",
	} {
		_, err := ReadJSONL(strings.NewReader(input))
		if !errors.Is(err, ErrSchema) {
			t.Fatalf("%s: err %v, want ErrSchema", name, err)
		}
	}
	_, err := ReadJSONL(strings.NewReader("{\"schema\":1,\"format\":\"hetmpc-trace\"}\n{bad"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("garbage record: err %v, want a line-2 error", err)
	}
}

// TestCollectorSink pins the streaming contract: without retain the
// collector stops buffering and the sink sees every record; with retain
// both paths fill; a nil sink restores buffering.
func TestCollectorSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New()
	tr.SetSink(sink, false)
	tr.Add(Round{Round: 1, Kind: KindExchange, Makespan: 2, Argmax: None, Victim: None})
	tr.Add(Round{Round: 2, Kind: KindExchange, Makespan: 3, Argmax: None, Victim: None})
	if tr.Len() != 0 {
		t.Fatalf("no-retain sink buffered %d rounds", tr.Len())
	}
	tr.SetSink(sink, true)
	tr.Add(Round{Round: 3, Kind: KindExchange, Makespan: 1, Argmax: None, Victim: None})
	if tr.Len() != 1 {
		t.Fatalf("retain sink buffered %d rounds, want 1", tr.Len())
	}
	tr.SetSink(nil, false)
	tr.Add(Round{Round: 4, Kind: KindExchange, Makespan: 1, Argmax: None, Victim: None})
	if tr.Len() != 2 {
		t.Fatalf("after clearing the sink: %d rounds buffered, want 2", tr.Len())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Round != 1 || got[2].Round != 3 {
		t.Fatalf("sink stream: %+v", got)
	}
}

// failWriter fails after n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestJSONLSinkStickyError: the first write failure is kept and surfaces at
// Close; Record never panics after it.
func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(&failWriter{n: 0})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer to force the write
		sink.Record(Round{Round: i, Phase: strings.Repeat("x", 64)})
	}
	if err := sink.Close(); err == nil {
		t.Fatal("sticky write error lost")
	}
}

// TestWritePerfetto validates the trace-event JSON shape: the schema stamp,
// metadata naming every track, one phase span per record on the rounds
// track, per-machine busy spans, fault markers on the right tracks, and a
// time axis equal to the summed makespan.
func TestWritePerfetto(t *testing.T) {
	rounds := sampleRounds()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rounds); err != nil {
		t.Fatal(err)
	}
	var file struct {
		Schema      int `json:"schema"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if file.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", file.Schema, SchemaVersion)
	}
	threadNames := map[int]string{}
	var spans, machineSpans, instants int
	var lastEnd float64
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threadNames[e.Tid] = e.Args["name"].(string)
			}
		case "X":
			if e.Tid == tidRounds {
				spans++
				if end := e.Ts + e.Dur; end > lastEnd {
					lastEnd = end
				}
			} else {
				machineSpans++
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if spans != len(rounds) {
		t.Fatalf("%d rounds-track spans, want %d", spans, len(rounds))
	}
	// sampleRounds busy vectors: 3 positive entries in record 0, 1 in record 1.
	if machineSpans != 4 {
		t.Fatalf("%d machine spans, want 4", machineSpans)
	}
	if instants != 2 { // one checkpoint, one recovery
		t.Fatalf("%d instant markers, want 2", instants)
	}
	if threadNames[tidRounds] != "rounds" || threadNames[tidMachineOffset] != "large" || threadNames[tidMachineOffset+1] != "small-0" {
		t.Fatalf("track names: %v", threadNames)
	}
	// Horizontal axis = Σ Makespan (3+2+4+1 = 10 units → 10000 µs).
	if lastEnd != 10*perfettoScale {
		t.Fatalf("trace ends at %v µs, want %v", lastEnd, 10*perfettoScale)
	}
	// The recovery marker lands on the victim's track (small-1 = slot 2 → tid 3).
	foundRecovery := false
	for _, e := range file.TraceEvents {
		if e.Ph == "i" && e.Cat == KindRecovery {
			foundRecovery = true
			if e.Tid != 1+1+tidMachineOffset {
				t.Fatalf("recovery marker on tid %d, want %d", e.Tid, 1+1+tidMachineOffset)
			}
		}
	}
	if !foundRecovery {
		t.Fatal("no recovery marker")
	}
}

// TestWritePerfettoEmpty: an empty timeline still renders a valid file with
// the metadata tracks (Perfetto loads it as an empty trace).
func TestWritePerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if _, ok := file["traceEvents"].([]any); !ok {
		t.Fatalf("missing traceEvents array: %v", file)
	}
}

// TestSummarizeEdgeCases covers the satellite checklist: empty trace,
// all-empty-round-only trace (silent barriers), single-machine cluster, and
// a fault-event-only timeline.
func TestSummarizeEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		s := Summarize(nil)
		if s.Rounds != 0 || s.Words != 0 || s.Makespan != 0 || len(s.Phases) != 0 {
			t.Fatalf("empty trace summary: %+v", s)
		}
	})
	t.Run("silent rounds only", func(t *testing.T) {
		// Barrier-only rounds: latency charged, no machine moved a word.
		rounds := []Round{
			{Phase: "idle", Kind: KindExchange, Latency: 1, Makespan: 1, Argmax: None, Victim: None},
			{Phase: "idle", Kind: KindExchange, Latency: 1, Makespan: 1, Argmax: None, Victim: None},
		}
		s := Summarize(rounds)
		if s.Rounds != 2 || s.Words != 0 || s.Makespan != 2 {
			t.Fatalf("silent summary: %+v", s)
		}
		p := s.Phases[0]
		if p.Top != None || p.TopTime != 0 || p.TopShare != 0 {
			t.Fatalf("silent rounds produced a bottleneck machine: %+v", p)
		}
		if p.EmptyRounds != 2 {
			t.Fatalf("silent rounds counted %d empty, want 2", p.EmptyRounds)
		}
		if p.Share != 1 {
			t.Fatalf("single phase share %v, want 1", p.Share)
		}
	})
	t.Run("single machine", func(t *testing.T) {
		// A cluster with only the large machine: one-slot busy vectors.
		rounds := []Round{
			{Phase: "solo", Kind: KindExchange, Words: 8, MaxTime: 4, Makespan: 5, Argmax: Large,
				Busy: []float64{4}},
			{Phase: "solo", Kind: KindExchange, Words: 2, MaxTime: 1, Makespan: 2, Argmax: Large,
				Busy: []float64{1}},
		}
		s := Summarize(rounds)
		p := s.Phases[0]
		if p.Top != Large || p.TopTime != 5 || p.TopShare != 1 {
			t.Fatalf("single-machine bottleneck: %+v", p)
		}
		if s.Makespan != 7 || s.Words != 10 {
			t.Fatalf("single-machine totals: %+v", s)
		}
	})
	t.Run("fault events only", func(t *testing.T) {
		rounds := []Round{
			{Phase: "ckpt", Kind: KindCheckpoint, Makespan: 3, Argmax: 0, Busy: []float64{0, 3}},
			{Phase: "ckpt", Kind: KindRecovery, Makespan: 4, Argmax: None, Victim: 2, Crashes: 1},
		}
		s := Summarize(rounds)
		if s.Rounds != 0 {
			t.Fatalf("fault-only trace counted %d exchange rounds", s.Rounds)
		}
		p := s.Phases[0]
		if p.Barriers != 2 || p.EmptyRounds != 0 || p.Makespan != 7 {
			t.Fatalf("fault-only phase: %+v", p)
		}
		if p.Top != 0 || p.TopTime != 3 {
			t.Fatalf("fault-only bottleneck: %+v", p)
		}
	})
}
