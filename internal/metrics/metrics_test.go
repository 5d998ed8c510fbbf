package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsInert pins the zero-overhead contract: every constructor
// on a nil registry returns nil, every instrument method on a nil receiver
// is a no-op, and none of it allocates.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", ExpBuckets(1, 2, 4))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out live instruments: %v %v %v", c, g, h)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		c.Inc()
		g.Set(1.5)
		h.Observe(2.5)
		_ = c.Value()
		_ = g.Value()
		_ = h.Sum()
		_ = h.Count()
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocated %v per op, want 0", allocs)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
}

// TestInstrumentIdentity: same name+labels returns the same instrument;
// different labels (or label order) are distinct; kind mismatch panics.
func TestInstrumentIdentity(t *testing.T) {
	r := New()
	a := r.Counter("words", "machine", "small-0")
	b := r.Counter("words", "machine", "small-0")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	other := r.Counter("words", "machine", "small-1")
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(5)
	if other.Value() != 0 {
		t.Fatal("label dimensions share state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("words", "machine", "small-0")
}

// TestHistogramBuckets pins the le (at-or-below) bucket semantics, the
// overflow bucket, and the exact sum/count bookkeeping.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1e6} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count %d, want 7", h.Count())
	}
	want := 0.5 + 1 + 1.5 + 10 + 99 + 100 + 1e6
	if h.Sum() != want {
		t.Fatalf("sum %v, want %v", h.Sum(), want)
	}
	s := r.Snapshot()
	if len(s) != 1 || s[0].Kind != KindHistogram {
		t.Fatalf("snapshot %+v", s)
	}
	counts := []int64{2, 2, 2, 1} // le-1: {0.5, 1}; le-10: {1.5, 10}; le-100: {99, 100}; +Inf: {1e6}
	for i, b := range s[0].Buckets {
		if b.Count != counts[i] {
			t.Fatalf("bucket %d count %d, want %d (%+v)", i, b.Count, counts[i], s[0].Buckets)
		}
	}
	if s[0].Buckets[3].Le != nil {
		t.Fatal("overflow bucket carries a bound")
	}
}

// TestCounterConcurrency: counters take concurrent adds without loss (the
// wire transports update per-link counters from the drain goroutine and the
// writer at once).
func TestCounterConcurrency(t *testing.T) {
	r := New()
	c := r.Counter("bytes", "link", "large")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("concurrent adds lost updates: %d, want 16000", got)
	}
}

// TestSnapshotDeterministic: registration order does not leak into the
// snapshot — it is sorted by name then labels — and WriteJSON is
// byte-deterministic with the schema header.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := New()
		names := []struct{ name, k, v string }{
			{"zz", "", ""},
			{"aa", "machine", "small-1"},
			{"aa", "machine", "small-0"},
		}
		for _, i := range order {
			n := names[i]
			if n.k == "" {
				r.Counter(n.name).Add(int64(i))
			} else {
				r.Counter(n.name, n.k, n.v).Add(int64(i))
			}
		}
		return r
	}
	var bufA, bufB bytes.Buffer
	if err := build([]int{0, 1, 2}).WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{2, 1, 0}).WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	// Same instruments, different registration order and values: structure
	// (name order) must match; compare the name sequences.
	var a, b struct {
		Schema  int      `json:"schema"`
		Metrics []Sample `json:"metrics"`
	}
	if err := json.Unmarshal(bufA.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bufB.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", a.Schema, SchemaVersion)
	}
	for i := range a.Metrics {
		if a.Metrics[i].Name != b.Metrics[i].Name || a.Metrics[i].Labels["machine"] != b.Metrics[i].Labels["machine"] {
			t.Fatalf("snapshot order depends on registration order:\n%v\n%v", a.Metrics, b.Metrics)
		}
	}
	wantOrder := []string{"aa", "aa", "zz"}
	for i, s := range a.Metrics {
		if s.Name != wantOrder[i] {
			t.Fatalf("snapshot not sorted: %v", a.Metrics)
		}
	}
	if a.Metrics[0].Labels["machine"] != "small-0" {
		t.Fatalf("labels not sorted within a name: %v", a.Metrics)
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
