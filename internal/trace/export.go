package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Export formats of a trace timeline (DESIGN.md §12): the Chrome
// trace-event JSON that Perfetto (ui.perfetto.dev) and chrome://tracing
// load, and a JSONL stream of raw Round records for long runs and for
// cmd/hettrace.

// SchemaVersion is the wire-format version stamped into both export
// formats; cmd/hettrace refuses files whose schema does not match its own.
const SchemaVersion = 1

// jsonlHeader is the first line of a JSONL trace file: the schema and a
// format tag, so a truncated or foreign file is refused before any record
// is parsed.
type jsonlHeader struct {
	Schema int    `json:"schema"`
	Format string `json:"format"`
}

// jsonlFormat tags the JSONL header.
const jsonlFormat = "hetmpc-trace"

// WriteJSONL writes the timeline as a JSONL stream: one schema header line,
// then one Round per line in record order.
func WriteJSONL(w io.Writer, rounds []Round) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Schema: SchemaVersion, Format: jsonlFormat}); err != nil {
		return err
	}
	for i := range rounds {
		if err := enc.Encode(&rounds[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrSchema is wrapped by readers that meet a trace file whose schema
// version (or format tag) does not match this build's SchemaVersion.
var ErrSchema = errors.New("trace: schema mismatch")

// ReadJSONL reads a WriteJSONL stream back: it validates the header line
// (wrapping ErrSchema on a version or format mismatch) and returns the
// records in order. Blank lines are tolerated; any other malformed line is
// an error naming its line number.
func ReadJSONL(r io.Reader) ([]Round, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	var rounds []Round
	seenHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !seenHeader {
			var h jsonlHeader
			if err := json.Unmarshal([]byte(text), &h); err != nil || h.Format != jsonlFormat {
				return nil, fmt.Errorf("trace: line 1 is not a %q header: %w", jsonlFormat, ErrSchema)
			}
			if h.Schema != SchemaVersion {
				return nil, fmt.Errorf("trace: file schema %d, this build reads %d: %w", h.Schema, SchemaVersion, ErrSchema)
			}
			seenHeader = true
			continue
		}
		var rec Round
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rounds = append(rounds, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("trace: empty file: %w", ErrSchema)
	}
	return rounds, nil
}

// perfettoScale maps one simulated time unit to Chrome trace-event
// microseconds: 1 unit renders as 1ms, so a round-latency-1 cluster shows
// rounds at millisecond pitch.
const perfettoScale = 1000.0

// perfettoEvent is one Chrome trace-event. Only the fields the exporter
// emits are declared; ts and dur are in microseconds.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the trace-event JSON object format: Perfetto and
// chrome://tracing both accept extra top-level keys, so the schema version
// rides along for hettrace and the CI smoke check.
type perfettoFile struct {
	Schema          int             `json:"schema"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []perfettoEvent `json:"traceEvents"`
}

// Track layout: everything is one process; tid 0 is the per-round phase
// track, tid 1 the large machine, tid 2+i small machine i.
const (
	perfettoPid      = 0
	tidRounds        = 0
	tidMachineOffset = 1 // slot s renders on tid s+1
)

// WritePerfetto renders the timeline as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) and chrome://tracing:
//
//   - a "rounds" track carrying one span per record, named by its phase
//     path and categorized by its kind, so the phase structure of the run
//     reads as a timeline;
//   - one track per machine (large first, then small machines) carrying
//     that machine's busy-time span of each round — the per-machine cost
//     attribution view;
//   - instant-event markers for the fault records: a checkpoint marker on
//     the rounds track, a crash-recovery marker on the victim's track.
//
// Time is the simulated clock: spans start at the cumulative makespan of
// the records before them and last the record's Makespan (machine spans:
// the machine's busy charge), so the horizontal axis is exactly
// Stats.Makespan.
func WritePerfetto(w io.Writer, rounds []Round) error {
	slots := 1
	for i := range rounds {
		if n := len(rounds[i].Busy); n > slots {
			slots = n
		}
	}
	events := make([]perfettoEvent, 0, 2*len(rounds)+slots+2)
	events = append(events, perfettoEvent{
		Name: "process_name", Ph: "M", Pid: perfettoPid,
		Args: map[string]any{"name": "hetmpc cluster"},
	})
	events = append(events, perfettoEvent{
		Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: tidRounds,
		Args: map[string]any{"name": "rounds"},
	})
	for slot := 0; slot < slots; slot++ {
		events = append(events, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: slot + tidMachineOffset,
			Args: map[string]any{"name": MachineName(SlotMachine(slot))},
		})
	}

	t := 0.0 // cumulative simulated time
	for i := range rounds {
		r := &rounds[i]
		name := r.Phase
		if name == "" {
			name = "(untagged)"
		}
		args := map[string]any{
			"round":  r.Round,
			"kind":   r.Kind,
			"words":  r.Words,
			"argmax": MachineName(r.Argmax),
		}
		if r.WireBytes > 0 {
			args["wire_bytes"] = r.WireBytes
		}
		if r.Messages > 0 {
			args["messages"] = r.Messages
		}
		events = append(events, perfettoEvent{
			Name: name, Cat: r.Kind, Ph: "X",
			Ts: t * perfettoScale, Dur: r.Makespan * perfettoScale,
			Pid: perfettoPid, Tid: tidRounds, Args: args,
		})
		for slot, busy := range r.Busy {
			if busy <= 0 {
				continue
			}
			events = append(events, perfettoEvent{
				Name: name, Cat: r.Kind, Ph: "X",
				Ts: t * perfettoScale, Dur: busy * perfettoScale,
				Pid: perfettoPid, Tid: slot + tidMachineOffset,
			})
		}
		switch r.Kind {
		case KindCheckpoint:
			events = append(events, perfettoEvent{
				Name: fmt.Sprintf("checkpoint @%d", r.Round), Cat: r.Kind, Ph: "i", S: "p",
				Ts: t * perfettoScale, Pid: perfettoPid, Tid: tidRounds,
				Args: map[string]any{"replication_words": r.ReplicationWords},
			})
		case KindRecovery:
			tid := tidRounds
			if r.Victim >= 0 {
				tid = 1 + r.Victim + tidMachineOffset // victim's small-machine slot
			}
			events = append(events, perfettoEvent{
				Name: fmt.Sprintf("recovery %s @%d", MachineName(r.Victim), r.Round), Cat: r.Kind, Ph: "i", S: "p",
				Ts: t * perfettoScale, Pid: perfettoPid, Tid: tid,
				Args: map[string]any{
					"victim":          MachineName(r.Victim),
					"recovery_rounds": r.RecoveryRounds,
				},
			})
		}
		t += r.Makespan
	}
	data, err := json.MarshalIndent(perfettoFile{
		Schema:          SchemaVersion,
		DisplayTimeUnit: "ms",
		TraceEvents:     events,
	}, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteTable renders s as the critical-path table: one row per phase path in
// first-seen order, with its rounds, how many of them moved no words, its
// words, makespan share and bottleneck machine.
func (s *Summary) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-44s %7s %6s %12s %12s %7s  %s\n", "phase", "rounds", "empty", "words", "makespan", "share", "bottleneck")
	for _, p := range s.Phases {
		name := p.Phase
		if name == "" {
			name = "(untagged)"
		}
		fmt.Fprintf(w, "%-44s %7d %6d %12d %12.6g %6.1f%%  %s (%.0f%% of phase busy)\n",
			name, p.Rounds, p.EmptyRounds, p.Words, p.Makespan, 100*p.Share, MachineName(p.Top), 100*p.TopShare)
	}
}
