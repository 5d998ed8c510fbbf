// Package metrics is the -metrics snapshot of a run (DESIGN.md §12): a fold
// of the engine's round records (trace.Round, DESIGN.md §5) into sorted
// counters, gauges and one histogram, and the schema-stamped JSON they
// export as. Fold computes it from a timeline; a Registry installed as
// mpc.Config.Metrics is the same fold kept live.
package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"hetmpc/internal/trace"
)

// SchemaVersion is the wire-format version of the snapshot JSON. Each format
// versions itself: internal/exp's BENCH artifacts and internal/trace's
// exports stamp their own SchemaVersion.
const SchemaVersion = 1

// Instrument kinds, as rendered in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// ExpBuckets returns n ascending upper bounds start, start·factor,
// start·factor², …. It panics on a non-positive start, a factor <= 1 or
// n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if !(start > 0) || !(factor > 1) || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%v, %v, %d): want start > 0, factor > 1, n >= 1", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// roundTimeBounds are mpc_round_time's bucket upper bounds.
var roundTimeBounds = ExpBuckets(1, 2, 20)

// Registry sums the records it is fed; use New. One registry may serve
// clusters run one after another and then covers all of their records.
// Like the trace collector it is fed on the serial round barrier and is not
// safe for concurrent use.
type Registry struct {
	rounds, silent, messages, words, specWords                  int64
	checkpoints, replicationWords, recoveryRounds, replayRounds int64

	timeCounts []int64 // mpc_round_time per bound, then the +Inf overflow
	timeSum    float64 // mpc_round_time's sum, and mpc_makespan
	timeN      int64

	// Per slot (0 = large, 1+i = small i), as wide as the widest record.
	send, recv, crashes []int64
	busy                []float64

	phases map[string][2]int64 // per span path: words, exchange rounds
}

// New returns an empty registry, ready for mpc.Config.Metrics.
func New() *Registry {
	return &Registry{timeCounts: make([]int64, len(roundTimeBounds)+1), phases: map[string][2]int64{}}
}

// Fold returns the snapshot of a registry fed rounds in order — what the
// live registry of the run that recorded them holds.
func Fold(rounds []trace.Round) []Sample {
	r := New()
	for _, rd := range rounds {
		r.Add(rd)
	}
	return r.Snapshot()
}

// Add folds one round record in; its per-slot vectors are only read.
func (r *Registry) Add(rd trace.Round) {
	r.timeCounts[sort.SearchFloat64s(roundTimeBounds, rd.Makespan)]++ // first bound >= the value
	r.timeSum += rd.Makespan
	r.timeN++
	p := r.phases[rd.Phase]
	p[0] += rd.Words
	if rd.Kind == trace.KindExchange {
		r.rounds++
		p[1]++
		if rd.Messages == 0 {
			r.silent++
		}
	}
	r.phases[rd.Phase] = p
	r.messages += int64(rd.Messages)
	r.words += rd.Words
	r.specWords += rd.SpecWords
	r.checkpoints += int64(rd.Checkpoints)
	r.replicationWords += rd.ReplicationWords
	r.recoveryRounds += int64(rd.RecoveryRounds)
	r.replayRounds += int64(rd.ReplayRounds)

	slots := max(len(rd.SendWords), len(rd.RecvWords), len(rd.Busy))
	if rd.Crashes > 0 {
		slots = max(slots, 2+rd.Victim)
	}
	if grow := slots - len(r.send); grow > 0 {
		r.send = append(r.send, make([]int64, grow)...)
		r.recv = append(r.recv, make([]int64, grow)...)
		r.crashes = append(r.crashes, make([]int64, grow)...)
		r.busy = append(r.busy, make([]float64, grow)...)
	}
	for s, w := range rd.SendWords {
		r.send[s] += int64(w)
	}
	for s, w := range rd.RecvWords {
		r.recv[s] += int64(w)
	}
	for s, t := range rd.Busy {
		r.busy[s] += t
	}
	if rd.Crashes > 0 {
		r.crashes[1+rd.Victim] += int64(rd.Crashes)
	}
}

// Bucket is one histogram bucket of a snapshot: the count of observations
// at or below the upper bound Le (the overflow bucket renders Le as +Inf,
// which JSON cannot carry, so it is emitted with Le omitted).
type Bucket struct {
	Le    *float64 `json:"le,omitempty"` // nil = the +Inf overflow bucket
	Count int64    `json:"count"`
}

// Sample is one instrument of a snapshot. Counter values are exact int64;
// gauge and histogram values are float64.
type Sample struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    string            `json:"kind"`
	Value   int64             `json:"value,omitempty"`   // counter
	Gauge   float64           `json:"gauge,omitempty"`   // gauge
	Sum     float64           `json:"sum,omitempty"`     // histogram
	Count   int64             `json:"count,omitempty"`   // histogram observations
	Buckets []Bucket          `json:"buckets,omitempty"` // histogram
}

// Snapshot renders every instrument, sorted by name then labels: the
// per-machine families cover every slot a record carried, the per-phase
// ones every span path a record was charged under. A nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	emit := func(s Sample, label ...string) {
		if len(label) == 2 {
			s.Labels = map[string]string{label[0]: label[1]}
		}
		out = append(out, s)
	}
	counter := func(name string, v int64) Sample { return Sample{Name: name, Kind: KindCounter, Value: v} }
	emit(counter("mpc_rounds_total", r.rounds))
	emit(counter("mpc_silent_rounds_total", r.silent))
	emit(counter("mpc_messages_total", r.messages))
	emit(counter("mpc_words_total", r.words))
	emit(counter("mpc_speculation_words_total", r.specWords))
	emit(counter("fault_checkpoints_total", r.checkpoints))
	emit(counter("fault_replication_words_total", r.replicationWords))
	emit(counter("fault_recovery_rounds_total", r.recoveryRounds))
	emit(counter("fault_replay_rounds_total", r.replayRounds))
	emit(Sample{Name: "mpc_makespan", Kind: KindGauge, Gauge: r.timeSum})
	rt := Sample{Name: "mpc_round_time", Kind: KindHistogram, Sum: r.timeSum, Count: r.timeN, Buckets: make([]Bucket, len(r.timeCounts))}
	for i, c := range r.timeCounts {
		rt.Buckets[i].Count = c
		if i < len(roundTimeBounds) {
			le := roundTimeBounds[i]
			rt.Buckets[i].Le = &le
		}
	}
	emit(rt)
	for slot := range r.send {
		m := trace.MachineName(trace.SlotMachine(slot))
		emit(counter("mpc_send_words_total", r.send[slot]), "machine", m)
		emit(counter("mpc_recv_words_total", r.recv[slot]), "machine", m)
		emit(Sample{Name: "mpc_busy_time", Kind: KindGauge, Gauge: r.busy[slot]}, "machine", m)
		if slot > 0 {
			emit(counter("fault_crashes_total", r.crashes[slot]), "machine", m)
		}
	}
	for path, p := range r.phases {
		out = append(out,
			Sample{Name: "mpc_phase_words_total", Labels: map[string]string{"phase": path}, Kind: KindCounter, Value: p[0]},
			Sample{Name: "mpc_phase_rounds_total", Labels: map[string]string{"phase": path}, Kind: KindCounter, Value: p[1]})
	}
	// A labelled family carries one label, machine or phase: the order is
	// the name, then that label's value.
	slices.SortFunc(out, func(a, b Sample) int {
		return cmp.Or(strings.Compare(a.Name, b.Name),
			strings.Compare(a.Labels["machine"], b.Labels["machine"]),
			strings.Compare(a.Labels["phase"], b.Labels["phase"]))
	})
	return out
}

// snapshotFile is the wire format of WriteJSON: the schema version plus the
// sorted samples.
type snapshotFile struct {
	Schema  int      `json:"schema"`
	Metrics []Sample `json:"metrics"`
}

// WriteJSON writes the snapshot as indented JSON with the schema version —
// the METRICS_*.json format of the CLIs. Nil-safe (an empty snapshot still
// carries the schema header).
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteSamples(w, r.Snapshot())
}

// WriteSamples writes an already-taken snapshot in the WriteJSON format, for
// callers that hold the samples but no longer the registry (a BENCH
// artifact's metrics field, say).
func WriteSamples(w io.Writer, samples []Sample) error {
	if samples == nil {
		samples = []Sample{}
	}
	data, err := json.MarshalIndent(snapshotFile{Schema: SchemaVersion, Metrics: samples}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
