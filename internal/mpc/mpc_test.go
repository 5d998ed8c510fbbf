package mpc

import (
	"errors"
	"sync/atomic"
	"testing"

	"hetmpc/internal/xrand"
)

func newTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigDefaultsAndDerivedK(t *testing.T) {
	c := newTest(t, Config{N: 1024, M: 8192})
	// K = ceil(8192 / 1024^0.5) = ceil(8192/32) = 256
	if c.K() != 256 {
		t.Fatalf("K = %d, want 256", c.K())
	}
	// log2(1024) rounds to 11 with our ceil-style count; capacities positive
	// and ordered.
	if c.SmallCap() <= 0 || c.LargeCap() <= c.SmallCap() {
		t.Fatalf("capacities: small %d large %d", c.SmallCap(), c.LargeCap())
	}
	if !c.HasLarge() {
		t.Fatal("default cluster should have a large machine")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := New(Config{N: 100, Gamma: 1.5}); err == nil {
		t.Fatal("gamma out of range accepted")
	}
	if _, err := New(Config{N: 100, F: -1}); err == nil {
		t.Fatal("negative f accepted")
	}
}

func TestExchangeDeliversAndCounts(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	outs := make([][]Msg, c.K())
	outs[0] = []Msg{{To: 1, Words: 3, Data: "a"}, {To: Large, Words: 2, Data: "b"}}
	outs[1] = []Msg{{To: 0, Words: 1, Data: "c"}}
	outLarge := []Msg{{To: 1, Words: 5, Data: "d"}}
	ins, inLarge, err := c.Exchange(outs, outLarge)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 1 {
		t.Fatalf("Rounds = %d", c.Rounds())
	}
	if len(ins[0]) != 1 || ins[0][0].Data != "c" || ins[0][0].From != 1 {
		t.Fatalf("machine 0 inbox: %+v", ins[0])
	}
	if len(ins[1]) != 2 {
		t.Fatalf("machine 1 inbox size %d", len(ins[1]))
	}
	// Deterministic order: large machine's message first.
	if ins[1][0].From != Large || ins[1][1].From != 0 {
		t.Fatalf("delivery order: %+v", ins[1])
	}
	if len(inLarge) != 1 || inLarge[0].Data != "b" {
		t.Fatalf("large inbox: %+v", inLarge)
	}
	st := c.Stats()
	if st.Messages != 4 || st.TotalWords != 11 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestExchangeEnforcesSendCap(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	outs := make([][]Msg, c.K())
	outs[0] = []Msg{{To: 1, Words: c.SmallCap() + 1}}
	if _, _, err := c.Exchange(outs, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
}

func TestExchangeEnforcesRecvCap(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	// Many senders each under their cap, one receiver over its cap.
	per := c.SmallCap()/4 + 1
	outs := make([][]Msg, c.K())
	for i := 0; i < 8 && i < c.K(); i++ {
		outs[i] = []Msg{{To: 0, Words: per}}
	}
	if _, _, err := c.Exchange(outs, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
}

func TestLargeMachineCapLargerThanSmall(t *testing.T) {
	c := newTest(t, Config{N: 256, M: 1024, Seed: 1})
	// The large machine can absorb what a small machine cannot.
	words := c.SmallCap() * 2
	if words > c.LargeCap() {
		t.Skip("capacities too close for this test size")
	}
	outs := make([][]Msg, c.K())
	outs[0] = []Msg{{To: Large, Words: c.SmallCap()}}
	outs[1] = []Msg{{To: Large, Words: c.SmallCap()}}
	if _, _, err := c.Exchange(outs, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoLargeClusterRejectsLargeTraffic(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, NoLarge: true, Seed: 1})
	outs := make([][]Msg, c.K())
	outs[0] = []Msg{{To: Large, Words: 1}}
	if _, _, err := c.Exchange(outs, nil); err == nil {
		t.Fatal("send to missing large machine accepted")
	}
	if _, _, err := c.Exchange(nil, []Msg{{To: 0, Words: 1}}); err == nil {
		t.Fatal("send from missing large machine accepted")
	}
}

func TestRoundBudget(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 128, MaxRounds: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Exchange(nil, nil); !errors.Is(err, ErrRounds) {
		t.Fatalf("want ErrRounds, got %v", err)
	}
}

func TestPerMachineRNGDeterministicAndPrivate(t *testing.T) {
	c1 := newTest(t, Config{N: 64, M: 256, Seed: 9})
	c2 := newTest(t, Config{N: 64, M: 256, Seed: 9})
	if c1.Rand(0).Uint64() != c2.Rand(0).Uint64() {
		t.Fatal("same seed, different streams")
	}
	if c1.Rand(1).Uint64() == c2.Rand(2).Uint64() {
		t.Fatal("distinct machines share streams")
	}
	c3 := newTest(t, Config{N: 64, M: 256, Seed: 10})
	if c1.Rand(0).Uint64() == c3.Rand(0).Uint64() {
		t.Fatal("different seeds, same stream")
	}
}

// TestRandStreamsFollowSplit: machine i's generator draws the stream of
// xrand.New(xrand.Split(seed, i+1)), the large machine's that of seed's
// child 0 — the streams every seeded run has drawn.
func TestRandStreamsFollowSplit(t *testing.T) {
	const seed = 9
	c := newTest(t, Config{N: 256, M: 2048, Seed: seed})
	for _, i := range []int{-1, 0, 1, c.K() - 1} {
		got, want := c.LargeRand(), xrand.New(xrand.Split(seed, 0))
		if i >= 0 {
			got, want = c.Rand(i), xrand.New(xrand.Split(seed, uint64(i)+1))
		}
		for d := 0; d < 4; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("machine %d draw %d: %#x, want %#x", i, d, g, w)
			}
		}
	}
}

// TestNewAllocsIndependentOfK: a cluster's per-machine state — generators
// included — is a fixed number of arrays, so New allocates as often at
// K=512 as at K=64.
func TestNewAllocsIndependentOfK(t *testing.T) {
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(10, func() {
			c, err := New(Config{N: 4096, M: 1 << 16, K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if lo, hi := allocs(64), allocs(512); hi != lo {
		t.Errorf("New allocates %v times at K=64, %v at K=512: allocation follows the machines", lo, hi)
	}
}

func TestForSmallVisitsAllOnce(t *testing.T) {
	c := newTest(t, Config{N: 256, M: 2048, Seed: 1})
	counts := make([]atomic.Int32, c.K())
	if err := c.ForSmall(func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("machine %d visited %d times", i, counts[i].Load())
		}
	}
}

func TestForSmallPropagatesError(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 512, Seed: 1})
	sentinel := errors.New("boom")
	err := c.ForSmall(func(i int) error {
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
}

func TestSuperlinearCapacity(t *testing.T) {
	near := newTest(t, Config{N: 1024, M: 4096, Seed: 1})
	super := newTest(t, Config{N: 1024, M: 4096, F: 0.5, Seed: 1})
	if super.LargeCap() <= near.LargeCap() {
		t.Fatal("superlinear cap not larger")
	}
	// n^{1.5} vs n: ratio should be about sqrt(n) = 32
	ratio := float64(super.LargeCap()) / float64(near.LargeCap())
	if ratio < 16 || ratio > 64 {
		t.Fatalf("capacity ratio %f, want ~32", ratio)
	}
}
