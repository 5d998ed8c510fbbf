package trace

import "testing"

// TestCollectorAddCopies pins the ownership rule of Add: the engine hands
// in views of its round scratch, so what the collector buffers (and what a
// sink receives) must not alias them. Reset drops the buffer.
func TestCollectorAddCopies(t *testing.T) {
	tr := New()
	send, busy := []int{0, 3}, []float64{0, 1.5}
	tr.Add(Round{Kind: KindExchange, Makespan: 1, SendWords: send, Busy: busy})
	send[1], busy[1] = 0, 0 // the engine zeroes its scratch after the round
	got := tr.Rounds()[0]
	if got.SendWords[1] != 3 || got.Busy[1] != 1.5 || got.RecvWords != nil {
		t.Fatalf("buffered record aliases the caller's vectors: %+v", got)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Reset left %d records", tr.Len())
	}
}

// TestSummarize pins the aggregation: phases in first-appearance order,
// shares partitioning the totals, exchange-vs-barrier counting, and the
// per-phase bottleneck machine from the summed busy vectors (argmax/
// max-time fallback when a record carries no vector).
func TestSummarize(t *testing.T) {
	rounds := []Round{
		{Phase: "a", Kind: KindExchange, Words: 10, Makespan: 4, Argmax: Large,
			Busy: []float64{3, 1, 0}},
		{Phase: "b", Kind: KindExchange, Words: 20, Makespan: 6, Argmax: 1,
			Busy: []float64{0, 2, 5}},
		{Phase: "a", Kind: KindCheckpoint, Words: 0, Makespan: 2, Argmax: 0,
			Busy: []float64{0, 4, 0}},
		// No busy vector: falls back to (Argmax, MaxTime).
		{Phase: "c", Kind: KindExchange, Words: 5, Makespan: 3, MaxTime: 2, Argmax: 1},
	}
	s := Summarize(rounds)
	if s.Rounds != 3 || s.Words != 35 || s.Makespan != 15 {
		t.Fatalf("totals: %+v", s)
	}
	if len(s.Phases) != 3 || s.Phases[0].Phase != "a" || s.Phases[1].Phase != "b" || s.Phases[2].Phase != "c" {
		t.Fatalf("phase order: %+v", s.Phases)
	}
	a := s.Phases[0]
	// The wordless checkpoint is a barrier, not an empty exchange round.
	if a.Rounds != 1 || a.Barriers != 1 || a.EmptyRounds != 0 || a.Makespan != 6 || a.Share != 6.0/15 {
		t.Fatalf("phase a: %+v", a)
	}
	// Phase a busy: large 3, small-0 1+4=5 -> top is small machine 0.
	if a.Top != 0 || a.TopTime != 5 || a.TopShare != 5.0/8 {
		t.Fatalf("phase a top: %+v", a)
	}
	b := s.Phases[1]
	if b.Top != 1 || b.TopTime != 5 {
		t.Fatalf("phase b top: %+v", b)
	}
	cph := s.Phases[2]
	if cph.Top != 1 || cph.TopTime != 2 || cph.TopShare != 1 {
		t.Fatalf("phase c fallback top: %+v", cph)
	}
	var shares float64
	for _, p := range s.Phases {
		shares += p.Share
	}
	if shares != 1 {
		t.Fatalf("phase shares sum to %v, want 1", shares)
	}
}

// TestMachineName covers the id rendering conventions.
func TestMachineName(t *testing.T) {
	for id, want := range map[int]string{Large: "large", None: "-", 0: "small-0", 7: "small-7"} {
		if got := MachineName(id); got != want {
			t.Fatalf("MachineName(%d) = %q, want %q", id, got, want)
		}
	}
}
