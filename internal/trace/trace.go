// Package trace is the per-round observability layer of the simulator
// (DESIGN.md §9). The mpc engine, when built with a Collector in
// Config.Trace, emits one structured Round record for every makespan
// contribution it charges — ordinary exchange rounds (including silent
// barrier-only rounds), checkpoint barriers, and per-victim crash
// recoveries — tagged with the phase-span path the algorithm had open at
// the time (Cluster.Span).
//
// The records are exact by construction: summing the per-record Makespan
// contributions in order reproduces Stats.Makespan bit-for-bit (same
// additions, same order, from the same zero), and the per-round Words sum
// to Stats.TotalWords. A nil Collector is the zero-overhead path — the
// engine skips all recording and the run is bit-identical to the
// pre-trace simulator.
//
// trace deliberately depends on nothing inside the repo, so every layer
// (mpc, prims, algorithms, exp, the CLIs) can share its types.
package trace

import (
	"fmt"
	"slices"
	"sort"
)

// Machine-id conventions, mirroring mpc: the large machine is -1, small
// machines are 0..K-1, and None marks "no machine" (a silent round where
// only the barrier latency was paid).
const (
	Large = -1
	None  = -2
)

// Record kinds.
const (
	// KindExchange is an ordinary synchronous communication round.
	KindExchange = "exchange"
	// KindCheckpoint is a checkpoint-replication barrier of the recovery
	// engine (DESIGN.md §7); it charges makespan but no algorithm words.
	KindCheckpoint = "checkpoint"
	// KindRecovery is one victim's crash recovery: detection, restore (or
	// cold replay) and restart downtime, charged at the barrier ending the
	// crash round.
	KindRecovery = "recovery"
)

// Round is one makespan contribution of the run: an exchange round, a
// checkpoint barrier, or one victim's crash recovery. Per-machine slices
// are indexed by slot — slot 0 is the large machine, slot 1+i is small
// machine i — matching the engine's internal layout.
type Round struct {
	Round int    `json:"round"` // Stats.Rounds when the record was emitted
	Phase string `json:"phase"` // "/"-joined span path ("" = untagged)
	Kind  string `json:"kind"`

	Messages int   `json:"messages,omitempty"`
	Words    int64 `json:"words"` // algorithm words moved (0 on barriers)

	// WireBytes is the round's measured bytes on the transport links
	// (DESIGN.md §11); 0 under in-process shared-memory delivery.
	WireBytes int64 `json:"wire_bytes,omitempty"`

	Latency  float64 `json:"latency"`  // barrier latency charged
	MaxTime  float64 `json:"max_time"` // busiest machine's charge
	Makespan float64 `json:"makespan"` // exact contribution to Stats.Makespan

	// Argmax is the machine that set MaxTime (Large, a small-machine
	// index, or None when no machine moved words).
	Argmax int `json:"argmax"`

	// Victim is the recovering machine on KindRecovery records and None
	// otherwise.
	Victim int `json:"victim"`

	// Fault/speculation events folded into this record; all zero on plain
	// reliable rounds.
	SpecWords        int64 `json:"spec_words,omitempty"`
	Crashes          int   `json:"crashes,omitempty"`
	RecoveryRounds   int   `json:"recovery_rounds,omitempty"`
	ReplayRounds     int   `json:"replay_rounds,omitempty"` // of RecoveryRounds, the re-executed work rounds
	ReplicationWords int64 `json:"replication_words,omitempty"`
	Checkpoints      int   `json:"checkpoints,omitempty"`

	// Per-slot detail (slot 0 = large machine, 1+i = small machine i):
	// words sent/received and the simulated time charged this round.
	SendWords []int     `json:"send_words,omitempty"`
	RecvWords []int     `json:"recv_words,omitempty"`
	Busy      []float64 `json:"busy,omitempty"`
}

// MachineName renders a trace machine id ("large", "small-3", "-").
func MachineName(id int) string {
	switch {
	case id == Large:
		return "large"
	case id >= 0:
		return fmt.Sprintf("small-%d", id)
	default:
		return "-"
	}
}

// Sink receives each Round as the engine records it — the streaming path
// for long runs (JSONLSink writes them straight to disk). Record runs
// synchronously on the round barrier, so implementations must not block on
// anything the round depends on.
type Sink interface {
	Record(Round)
}

// Collector accumulates the round timeline. The phase-span path a record
// carries is the engine's (Cluster.Phase); the collector only stores what it
// is handed. It is not safe for concurrent use — the model is synchronous
// rounds, and all engine recording runs on the round barrier.
type Collector struct {
	rounds []Round
	sink   Sink
	retain bool // buffer rounds even when a sink is set
}

// New returns an empty collector, ready for Config.Trace.
func New() *Collector { return &Collector{} }

// SetSink streams every subsequent record to s as it is added. With
// retain=false the collector stops buffering — the long-run mode where the
// timeline would not fit in memory (Rounds returns only what was buffered
// before); retain=true keeps the in-memory timeline alongside the stream.
// A nil s restores buffer-only collection.
func (t *Collector) SetSink(s Sink, retain bool) {
	t.sink = s
	t.retain = retain
}

// Add appends one record to the timeline (and streams it to the sink, when
// one is set). The per-slot vectors are copied first: the engine hands in
// views of its round scratch, and what the collector keeps or streams must
// outlive the round.
func (t *Collector) Add(r Round) {
	r.SendWords = slices.Clone(r.SendWords)
	r.RecvWords = slices.Clone(r.RecvWords)
	r.Busy = slices.Clone(r.Busy)
	if t.sink != nil {
		t.sink.Record(r)
		if !t.retain {
			return
		}
	}
	t.rounds = append(t.rounds, r)
}

// Rounds returns the recorded timeline (the collector's backing slice;
// callers must not mutate it).
func (t *Collector) Rounds() []Round { return t.rounds }

// Len returns the number of recorded rounds.
func (t *Collector) Len() int { return len(t.rounds) }

// Reset drops the recorded timeline: the round buffer resets with the
// cluster's round clock (ResetStats).
func (t *Collector) Reset() { t.rounds = t.rounds[:0] }

// PhaseStat is one row of the critical-path summary: every record whose
// phase path equals Phase, aggregated.
type PhaseStat struct {
	Phase    string `json:"phase"`
	Rounds   int    `json:"rounds"`             // exchange rounds attributed here
	Barriers int    `json:"barriers,omitempty"` // checkpoint/recovery records
	// EmptyRounds counts the exchange rounds of Rounds that moved no words:
	// a full barrier charged for nothing sent (DESIGN.md §6 names the ones
	// that are data-dependent; a mechanism that can never send is a bug).
	EmptyRounds int     `json:"empty_rounds,omitempty"`
	Words       int64   `json:"words"`
	Makespan    float64 `json:"makespan"`
	Share       float64 `json:"share"` // Makespan / Summary.Makespan

	// Top is the phase's bottleneck machine: the machine with the largest
	// summed per-round charge across the phase's records (None when the
	// phase never moved a word). TopTime is that sum; TopShare is
	// TopTime over the summed charges of all machines in the phase.
	Top      int     `json:"top"`
	TopTime  float64 `json:"top_time"`
	TopShare float64 `json:"top_share"`
}

// Summary is the aggregated view of a timeline: totals plus the per-phase
// decomposition, phases in first-appearance order. Because every record is
// attributed to exactly one (innermost) phase path, the phase rows
// partition the totals — Σ Phases[i].Makespan == Makespan and
// Σ Phases[i].Words == Words.
type Summary struct {
	Rounds   int         `json:"rounds"` // exchange rounds (== Stats.Rounds of the traced span)
	Words    int64       `json:"words"`
	Makespan float64     `json:"makespan"` // Σ per-record contributions, in order: bit-identical to Stats.Makespan
	Phases   []PhaseStat `json:"phases"`
}

// Summarize aggregates a timeline (typically Collector.Rounds, or several
// clusters' timelines concatenated) into the per-phase critical-path view.
func Summarize(rounds []Round) *Summary {
	s := &Summary{}
	idx := map[string]int{}
	busy := map[string]map[int]float64{} // phase -> machine id -> summed charge
	for _, r := range rounds {
		s.Makespan += r.Makespan
		s.Words += r.Words
		if r.Kind == KindExchange {
			s.Rounds++
		}
		i, ok := idx[r.Phase]
		if !ok {
			i = len(s.Phases)
			idx[r.Phase] = i
			s.Phases = append(s.Phases, PhaseStat{Phase: r.Phase})
			busy[r.Phase] = map[int]float64{}
		}
		p := &s.Phases[i]
		p.Makespan += r.Makespan
		p.Words += r.Words
		if r.Kind == KindExchange {
			p.Rounds++
			if r.Words == 0 {
				p.EmptyRounds++
			}
		} else {
			p.Barriers++
		}
		b := busy[r.Phase]
		if len(r.Busy) > 0 {
			for slot, t := range r.Busy {
				if t > 0 {
					b[SlotMachine(slot)] += t
				}
			}
		} else if r.Argmax != None {
			b[r.Argmax] += r.MaxTime
		}
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		if s.Makespan > 0 {
			p.Share = p.Makespan / s.Makespan
		}
		p.Top = None
		total := 0.0
		// Ascending id order: the float sum is evaluated in one fixed order
		// (bit-stable across runs), and strict > picks the smallest id among
		// tied maxima.
		ids := make([]int, 0, len(busy[p.Phase]))
		for id := range busy[p.Phase] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			t := busy[p.Phase][id]
			total += t
			if t > p.TopTime {
				p.Top, p.TopTime = id, t
			}
		}
		if total > 0 {
			p.TopShare = p.TopTime / total
		}
	}
	return s
}

// SlotMachine converts a per-slot index (0 = large, 1+i = small i; negative
// = no machine) to the machine-id convention.
func SlotMachine(slot int) int {
	switch {
	case slot < 0:
		return None
	case slot == 0:
		return Large
	}
	return slot - 1
}
