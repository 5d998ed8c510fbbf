// Package metrics is the aggregation layer of the observability stack
// (DESIGN.md §12): a zero-dependency registry of named counters, gauges and
// fixed-bucket histograms with label dimensions (machine, link, phase, …).
// The mpc engine, the wire transports, the placement estimator and the
// fault engine all publish through it when a Registry is installed in
// mpc.Config.Metrics; a nil Registry is the zero-overhead path — every
// instrument constructor on a nil Registry returns a nil instrument, every
// instrument method on a nil receiver is a no-op, and the engine skips all
// recording, so an uninstrumented run is bit-identical to the pre-metrics
// simulator (the same contract as the nil trace.Collector).
//
// Identity and determinism: an instrument is identified by its name plus
// its ordered label pairs; asking the registry for the same identity twice
// returns the same instrument, and asking for it with a different
// instrument kind panics (a programming error, never a data error).
// Snapshot renders the registry sorted by name then labels, so the exported
// JSON is byte-deterministic for a deterministic run.
//
// Concurrency: Counter and Gauge are atomic — the wire transports update
// per-link counters from the round's drain goroutine while the writer
// updates its own. Histogram is not synchronized; the engine observes
// histograms only at the serial round barrier, matching the
// synchronous-rounds model.
//
// metrics deliberately depends on nothing inside the repo, so every layer
// (trace, wire, sched, fault, mpc, exp, the CLIs) can share it.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SchemaVersion is the wire-format version of the snapshot JSON (and of the
// observability artifacts generally; internal/exp and internal/trace stamp
// the same constant so hettrace can refuse mismatched files uniformly).
const SchemaVersion = 1

// Instrument kinds, as rendered in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotone atomic int64. Counters accumulate for the lifetime
// of the registry; they are not rebased by mpc.Cluster.ResetStats (the
// Prometheus convention — rates and deltas are the reader's job).
type Counter struct {
	v atomic.Int64
}

// Add adds d (no-op on a nil receiver).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds 1 (no-op on a nil receiver).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the latest set value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// exact sum and count of every observation. It is not safe for concurrent
// use — the engine observes on the serial round barrier.
type Histogram struct {
	bounds []float64 // ascending upper bounds; observations above the last land in the +Inf overflow
	counts []int64   // len(bounds)+1; the last is the overflow bucket
	sum    float64
	n      int64
}

// Observe records v (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Sum returns the exact sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// ExpBuckets returns n ascending upper bounds start, start·factor,
// start·factor², … — the standard fixed-bucket layout for latency- and
// size-shaped distributions. It panics on a non-positive start, a factor
// <= 1 or n < 1 (a programming error in the instrumentation site).
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

// instrument is one registered instrument with its identity.
type instrument struct {
	name   string
	labels []string // ordered k, v pairs
	kind   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds the instruments. The zero value is NOT ready; use New. A
// nil *Registry is the documented zero-overhead path: every constructor
// returns nil and every lookup is skipped.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*instrument
	ins  []*instrument
}

// New returns an empty registry, ready for mpc.Config.Metrics.
func New() *Registry {
	return &Registry{byID: map[string]*instrument{}}
}

// id builds the identity key. Label pairs are part of the identity in the
// order given; instrumentation sites use one fixed order per name.
func id(name string, labels []string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: instrument %q: odd label list %q (want key, value pairs)", name, labels))
	}
	if len(labels) == 0 {
		return name
	}
	return name + "\x00" + strings.Join(labels, "\x00")
}

// lookup returns the instrument of the identity, creating it via mk on first
// use and panicking when the identity is already registered as another kind.
func (r *Registry) lookup(kind, name string, labels []string, mk func() *instrument) *instrument {
	key := id(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byID[key]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("metrics: instrument %q registered as %s, requested as %s", name, in.kind, kind))
		}
		return in
	}
	in := mk()
	in.name, in.kind = name, kind
	in.labels = append([]string(nil), labels...)
	r.byID[key] = in
	r.ins = append(r.ins, in)
	return in
}

// Counter returns the counter of name with the given ordered label pairs,
// registering it on first use. Nil-safe: a nil registry returns a nil
// counter, whose methods are no-ops.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(KindCounter, name, labels, func() *instrument {
		return &instrument{c: &Counter{}}
	}).c
}

// Gauge returns the gauge of name with the given ordered label pairs,
// registering it on first use. Nil-safe like Counter.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(KindGauge, name, labels, func() *instrument {
		return &instrument{g: &Gauge{}}
	}).g
}

// Histogram returns the fixed-bucket histogram of name with the given
// ordered label pairs, registering it with the bounds on first use (later
// calls reuse the registered bounds and ignore the argument). Nil-safe like
// Counter.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(KindHistogram, name, labels, func() *instrument {
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			panic(fmt.Sprintf("metrics: histogram %q: bounds %v not ascending", name, bounds))
		}
		return &instrument{h: &Histogram{bounds: b, counts: make([]int64, len(b)+1)}}
	}).h
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

// Snapshot renders every instrument, sorted by name then labels, so a
// deterministic run exports byte-identical JSON. Nil-safe: a nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ins := append([]*instrument(nil), r.ins...)
	r.mu.Unlock()
	sort.SliceStable(ins, func(a, b int) bool {
		if ins[a].name != ins[b].name {
			return ins[a].name < ins[b].name
		}
		return strings.Join(ins[a].labels, "\x00") < strings.Join(ins[b].labels, "\x00")
	})
	out := make([]Sample, 0, len(ins))
	for _, in := range ins {
		s := Sample{Name: in.name, Kind: in.kind}
		if len(in.labels) > 0 {
			s.Labels = make(map[string]string, len(in.labels)/2)
			for i := 0; i+1 < len(in.labels); i += 2 {
				s.Labels[in.labels[i]] = in.labels[i+1]
			}
		}
		switch in.kind {
		case KindCounter:
			s.Value = in.c.Value()
		case KindGauge:
			s.Gauge = in.g.Value()
		case KindHistogram:
			s.Sum, s.Count = in.h.sum, in.h.n
			s.Buckets = make([]Bucket, len(in.h.counts))
			for i, c := range in.h.counts {
				if i < len(in.h.bounds) {
					le := in.h.bounds[i]
					s.Buckets[i] = Bucket{Le: &le, Count: c}
				} else {
					s.Buckets[i] = Bucket{Count: c}
				}
			}
		}
		out = append(out, s)
	}
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
