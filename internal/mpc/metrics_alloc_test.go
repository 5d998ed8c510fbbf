package mpc

import (
	"fmt"
	"testing"

	"hetmpc/internal/metrics"
	"hetmpc/internal/wire"
)

// TestNilMetricsZeroAlloc pins the nil-registry contract at the allocation
// level: charge skips the registry fold when c.mx is nil, so a cluster
// built without Config.Metrics allocates exactly what the pre-metrics engine
// did. The absolute counts below are the engine's own steady-state
// allocations (the returned inbox slices) measured before the metrics hooks
// existed; a guard that slips — building a label slice or boxing a value
// before the nil check — shows up here as a count bump.
func TestNilMetricsZeroAlloc(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1})
	outs := ringRound(c, 2)
	for i := 0; i < 5; i++ {
		if _, _, err := c.Exchange(outs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Only the two slices handed to the caller: the flat inbox and its
	// per-machine index. Every other table lives on the round scratch.
	if got := testing.AllocsPerRun(100, func() { c.Exchange(outs, nil) }); got != 2 {
		t.Errorf("unmetered exchange allocates %v per round, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Exchange(nil, nil) }); got != 1 {
		t.Errorf("unmetered silent round allocates %v, want the pre-metrics 1", got)
	}

	// The metered silent path uses only bound instruments (the phase
	// counters are re-resolved only when the span path changes), so it must
	// allocate exactly as much as the unmetered one — the cheap proof that
	// the prebinding strategy works.
	cm := newTest(t, Config{N: 64, M: 256, Seed: 1, Metrics: metrics.New()})
	for i := 0; i < 5; i++ {
		if _, _, err := cm.Exchange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { cm.Exchange(nil, nil) }); got != 1 {
		t.Errorf("metered silent round allocates %v, want 1 (prebound instruments only)", got)
	}
}

// BenchmarkExchangeNilMetrics / BenchmarkExchangeMetered measure the
// per-round cost of the registry fold: the nil case is the engine baseline,
// the metered case carries the bound-instrument updates. The K axis is the
// Exchange rung of the scaling ladder: a ring round moves one message per
// machine, so ns/op over K is the engine's per-machine constant.
func benchmarkExchange(b *testing.B, newReg func() *metrics.Registry) {
	for _, k := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			// One round per iteration: the budget must cover b.N, or the run
			// dies with ErrRounds once b.N passes the default 100000.
			c, err := New(Config{N: 64, M: 256, K: k, Seed: 1, Metrics: newReg(), MaxRounds: b.N})
			if err != nil {
				b.Fatal(err)
			}
			outs := ringRound(c, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Exchange(outs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExchangeNilMetrics(b *testing.B) {
	benchmarkExchange(b, func() *metrics.Registry { return nil })
}
func BenchmarkExchangeMetered(b *testing.B) { benchmarkExchange(b, metrics.New) }

// wireRingCluster returns a pipe- or tcp-backed cluster of k small machines
// and its ring round, the transported twin of benchmarkExchange's setup.
func wireRingCluster(tb testing.TB, tr wire.Transport, k, maxRounds int) (*Cluster, [][]Msg) {
	tb.Helper()
	c, err := New(Config{N: 64, M: 256, K: k, Seed: 1, Transport: tr, MaxRounds: maxRounds})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, ringRound(c, 2)
}

// TestWireRoundAllocsIndependentOfK is the pin encodeRound's and readInto's
// zeroalloc markers cite: a warmed-up transported ring round allocates the
// same constant whatever K is — one drain goroutine and one decoder serve
// every link, where a reader goroutine per receiving slot grew the count by
// about two per machine.
func TestWireRoundAllocsIndependentOfK(t *testing.T) {
	perRound := func(k int) float64 {
		c, outs := wireRingCluster(t, wire.NewPipe(), k, 0)
		for i := 0; i < 5; i++ {
			if _, _, err := c.Exchange(outs, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() { c.Exchange(outs, nil) })
	}
	small, large := perRound(64), perRound(512)
	// The flat inbox, its per-machine index, and the drain's go statement.
	if small != 3 || large != 3 {
		t.Errorf("transported ring round allocates %v at K=64 and %v at K=512, want 3 at both", small, large)
	}
}

// BenchmarkExchangeWire is the transported rung of the Exchange ladder: the
// ring round of benchmarkExchange through a socket per machine, so ns/op
// over K is what encode, one Write and the drain's reads and decode cost per
// machine on top of the in-process round.
func BenchmarkExchangeWire(b *testing.B) {
	for _, name := range []string{"pipe", "tcp"} {
		for _, k := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/K=%d", name, k), func(b *testing.B) {
				c, outs := wireRingCluster(b, transports()[name](), k, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.Exchange(outs, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
