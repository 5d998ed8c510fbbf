package mpc

import (
	"testing"

	"hetmpc/internal/sched"
)

// ringRound builds one round of small-machine-only traffic: every machine
// sends `words` words to its successor, so each machine moves 2·words and
// the large machine stays silent (speculation never touches it anyway).
func ringRound(c *Cluster, words int) [][]Msg {
	outs := make([][]Msg, c.K())
	for i := 0; i < c.K(); i++ {
		outs[i] = []Msg{{To: (i + 1) % c.K(), Words: words, Data: i}}
	}
	return outs
}

// TestPlacementDefaultIsCap: a nil policy resolves to Cap, whose placement
// shares are the capacity shares verbatim.
func TestPlacementDefaultIsCap(t *testing.T) {
	for _, pol := range []sched.Policy{nil, sched.Cap{}} {
		cfg := Config{N: 64, M: 256, Seed: 1, Placement: pol}
		cfg.Profile = ZipfProfile(cfg.DeriveK(), 0.8, 0.05)
		c := newTest(t, cfg)
		if c.Placement().Name() != "cap" {
			t.Fatalf("default policy is %q, want cap", c.Placement().Name())
		}
		for i := 0; i < c.K(); i++ {
			if c.PlaceShare(i) != c.CapShare(i) {
				t.Fatalf("machine %d: PlaceShare %v != CapShare %v", i, c.PlaceShare(i), c.CapShare(i))
			}
		}
	}
}

// TestThroughputSharesOnCluster: on a uniform profile throughput shares are
// all exactly 1 (bit-identical to cap); under a straggler profile the slow
// tail's share drops to its relative effective speed, clipped by capacity.
func TestThroughputSharesOnCluster(t *testing.T) {
	cfg := Config{N: 64, M: 256, Seed: 1, Placement: sched.Throughput{}}
	c := newTest(t, cfg)
	for i := 0; i < c.K(); i++ {
		if c.PlaceShare(i) != 1 {
			t.Fatalf("uniform throughput share[%d] = %v, want exactly 1", i, c.PlaceShare(i))
		}
	}

	k := cfg.DeriveK()
	cfg.Profile = StragglerProfile(k, 2, 8) // last 2 machines at speed 1/8
	c = newTest(t, cfg)
	// Fast machines: cost 2, thr 1. Stragglers: cost 8+1 = 9, thr 2/9.
	want := 2.0 / 9.0
	for i := 0; i < k-2; i++ {
		if c.PlaceShare(i) != 1 {
			t.Fatalf("fast machine %d share %v, want 1", i, c.PlaceShare(i))
		}
	}
	for i := k - 2; i < k; i++ {
		if got := c.PlaceShare(i); got < want-1e-12 || got > want+1e-12 {
			t.Fatalf("straggler %d share %v, want %v", i, got, want)
		}
	}
}

// TestSpeculationAccounting drives one concrete round and checks the
// first-copy-wins arithmetic: the straggler's shard is mirrored onto the
// fastest machine, the round time falls from the straggler's 18B to the
// partner's own-plus-copy 8B, and the mirrored words are charged.
func TestSpeculationAccounting(t *testing.T) {
	const B = 5
	cfg := Config{N: 64, M: 256, Seed: 1}
	k := cfg.DeriveK()
	cfg.Profile = StragglerProfile(k, 1, 8) // machine k-1 at cost 8+1 = 9/word

	run := func(pol sched.Policy) *Cluster {
		cfg := cfg
		cfg.Placement = pol
		c := newTest(t, cfg)
		if _, _, err := c.Exchange(ringRound(c, B), nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	thr := run(sched.Throughput{})
	spec := run(sched.Speculate{R: 1})

	// Without speculation the straggler sets the round: 2B words at cost 9.
	wantThr := 1 + float64(2*B)*9
	if got := thr.Stats().Makespan; got != wantThr {
		t.Fatalf("throughput makespan %v, want %v", got, wantThr)
	}
	if thr.Stats().SpeculationWords != 0 {
		t.Fatalf("throughput charged %d speculation words", thr.Stats().SpeculationWords)
	}
	// With speculate:1 machine 0 re-executes the straggler's 2B-word shard
	// after its own: both finish at 2B·2 + 2B·2 = 8B, the new round max.
	wantSpec := 1 + float64(8*B)
	if got := spec.Stats().Makespan; got != wantSpec {
		t.Fatalf("speculate makespan %v, want %v", got, wantSpec)
	}
	if got := spec.Stats().SpeculationWords; got != int64(2*B) {
		t.Fatalf("speculation words %d, want %d", got, 2*B)
	}
	// Both sides of the pair finish at the copy's time; the partner's busy
	// time carries the honest extra work.
	if got := spec.BusyTime(0); got != float64(8*B) {
		t.Fatalf("partner busy %v, want %v", got, float64(8*B))
	}
	if got := spec.BusyTime(k - 1); got != float64(8*B) {
		t.Fatalf("victim busy %v, want %v", got, float64(8*B))
	}
	// Round structure is untouched: same rounds, messages, and words.
	if thr.Stats().Rounds != spec.Stats().Rounds ||
		thr.Stats().Messages != spec.Stats().Messages ||
		thr.Stats().TotalWords != spec.Stats().TotalWords {
		t.Fatalf("speculation changed the comm structure:\n thr: %+v\nspec: %+v", thr.Stats(), spec.Stats())
	}
}

// TestSpeculationSkipsHopelessCopies: when every machine runs at the same
// speed a copy can never beat the original (it starts after the partner's
// own shard), so nothing is launched and nothing is charged.
func TestSpeculationSkipsHopelessCopies(t *testing.T) {
	cfg := Config{N: 64, M: 256, Seed: 1, Placement: sched.Speculate{R: 3}}
	c := newTest(t, cfg)
	if _, _, err := c.Exchange(ringRound(c, 4), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SpeculationWords; got != 0 {
		t.Fatalf("uniform cluster launched %d speculation words", got)
	}
	// The makespan must match the unspeculated accounting exactly.
	want := 1 + float64(2*4)*2
	if got := c.Stats().Makespan; got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

// TestSpeculationClampsR: R beyond K/2 cannot pair every victim with a
// distinct partner and is clamped, not rejected.
func TestSpeculationClampsR(t *testing.T) {
	cfg := Config{N: 64, M: 256, Seed: 1, Placement: sched.Speculate{R: 1 << 20}}
	c := newTest(t, cfg)
	if c.specR != c.k/2 {
		t.Fatalf("specR %d, want clamp at k/2 = %d", c.specR, c.k/2)
	}
}
