package sched

import (
	"math"
	"testing"

	"hetmpc/internal/trace"
)

// propFixtures are the canonical machine descriptions the property tests
// sweep: uniform, capacity-skewed (zipf-like), speed-skewed (bimodal- and
// straggler-like), and capacity+speed skew at once.
func propFixtures() []struct {
	name string
	m    Machines
} {
	zipf := uniform(4)
	zipf.CapShare = []float64{1, 0.5, 0.25, 0.125}

	bimodal := uniform(8)
	bimodal.Cost[6], bimodal.Cost[7] = 8, 8

	straggler := uniform(4)
	straggler.Cost[3] = 9

	both := Machines{
		CapShare: []float64{1, 0.1, 1, 1},
		Cost:     []float64{2, 2, 2, 18},
	}
	return []struct {
		name string
		m    Machines
	}{
		{"uniform", uniform(4)},
		{"zipf", zipf},
		{"bimodal", bimodal},
		{"straggler", straggler},
		{"both", both},
	}
}

// checkShareInvariants asserts the contract every share vector must satisfy
// regardless of policy or estimator state: one positive finite weight per
// machine, never above the machine's capacity share (the clip is exact, not
// approximate), and the normalized fractions summing to 1 within one ulp
// per machine.
func checkShareInvariants(t *testing.T, m Machines, shares []float64) {
	t.Helper()
	if len(shares) != len(m.CapShare) {
		t.Fatalf("got %d shares for %d machines", len(shares), len(m.CapShare))
	}
	total := 0.0
	for i, s := range shares {
		if !(s > 0) || math.IsInf(s, 0) {
			t.Fatalf("share[%d] = %v, want positive finite (full: %v)", i, s, shares)
		}
		if s > m.CapShare[i] {
			t.Fatalf("share[%d] = %v exceeds capacity share %v (full: %v)", i, s, m.CapShare[i], shares)
		}
		total += s
	}
	fracSum := 0.0
	for _, s := range shares {
		fracSum += s / total
	}
	if ulps := float64(len(shares)) * 0x1p-52; math.Abs(fracSum-1) > ulps {
		t.Fatalf("normalized fractions sum to %v, off 1 by %g > %g (one ulp per machine; full: %v)",
			fracSum, math.Abs(fracSum-1), ulps, shares)
	}
}

// TestSharesProperties sweeps every policy — including adaptive at its
// alpha extremes — over the canonical skew fixtures and asserts the share
// invariants on each result.
func TestSharesProperties(t *testing.T) {
	policies := []Policy{Cap{}, Throughput{}, Speculate{R: 0}, Speculate{R: 2},
		Adaptive{Alpha: 0}, Adaptive{Alpha: DefaultAlpha}, Adaptive{Alpha: 1}}
	for _, fix := range propFixtures() {
		for _, pol := range policies {
			t.Run(fix.name+"/"+pol.Name(), func(t *testing.T) {
				shares, err := pol.Shares(fix.m)
				if err != nil {
					t.Fatal(err)
				}
				checkShareInvariants(t, fix.m, shares)
			})
		}
	}
}

// TestEstimatorSharesProperties drives one estimator per fixture to several
// hundred arbitrary (but deterministic) EWMA states — per-machine cost
// overrides spanning 15 orders of magnitude, interleaved with trace-shaped
// observations — and asserts the share invariants after every step. This is
// the mid-run contract: whatever the measurements did to the estimate, the
// next round's placement weights are well-formed and capacity-clipped.
func TestEstimatorSharesProperties(t *testing.T) {
	mags := []float64{1e-6, 1e-3, 0.25, 1, 2, 3.75, 9, 1e3, 1e6, 1e9}
	for _, fix := range propFixtures() {
		t.Run(fix.name, func(t *testing.T) {
			est, err := Adaptive{Alpha: DefaultAlpha}.NewEstimator(fix.m)
			if err != nil {
				t.Fatal(err)
			}
			k := est.K()
			rng := uint64(1)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			send := make([]int, k+1)
			busy := make([]float64, k+1)
			for step := 0; step < 400; step++ {
				if step%3 == 2 {
					// Every third step observes a synthetic round instead of
					// overriding directly: a few machines move words at
					// arbitrary measured costs.
					for slot := range send {
						send[slot], busy[slot] = 0, 0
					}
					for n := next(k) + 1; n > 0; n-- {
						slot := 1 + next(k)
						w := 1 + next(4096)
						send[slot] = w
						busy[slot] = float64(w) * mags[next(len(mags))]
					}
					est.Observe(trace.Round{SendWords: send, Busy: busy})
				} else if err := est.SetEstimate(next(k), mags[next(len(mags))]); err != nil {
					t.Fatal(err)
				}
				checkShareInvariants(t, fix.m, est.Shares(nil))
			}
		})
	}
}

// TestParseAdaptive covers the adaptive CLI specs: the bare form fills
// DefaultAlpha, explicit gains parse at both ends of [0,1], and malformed
// or out-of-range gains are rejected.
func TestParseAdaptive(t *testing.T) {
	p, err := Parse("adaptive")
	if err != nil || p.(Adaptive).Alpha != DefaultAlpha || p.Speculation() != 0 {
		t.Fatalf("Parse(adaptive) = %#v, %v", p, err)
	}
	for spec, alpha := range map[string]float64{
		"adaptive:0": 0, "adaptive:0.25": 0.25, "adaptive:0.5": 0.5, "adaptive:1": 1,
	} {
		p, err := Parse(spec)
		if err != nil || p.(Adaptive).Alpha != alpha {
			t.Fatalf("Parse(%q) = %#v, %v; want alpha %v", spec, p, err, alpha)
		}
		if p.Name() != spec {
			t.Fatalf("Parse(%q).Name() = %q", spec, p.Name())
		}
	}
	for _, bad := range []string{"adaptive:", "adaptive:-0.1", "adaptive:1.5",
		"adaptive:x", "adaptive:NaN", "adaptive:+Inf", "adaptive:0:1"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestAdaptiveStaticSharesMatchThroughput: the static seed placement of an
// adaptive policy (what New uses before any observation exists) is
// bit-identical to Throughput's on every fixture — same formula, same float
// operations.
func TestAdaptiveStaticSharesMatchThroughput(t *testing.T) {
	for _, fix := range propFixtures() {
		want, err := Throughput{}.Shares(fix.m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Adaptive{Alpha: DefaultAlpha}.Shares(fix.m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: adaptive seed share[%d] = %v, throughput %v", fix.name, i, got[i], want[i])
			}
		}
		est, err := Adaptive{Alpha: DefaultAlpha}.NewEstimator(fix.m)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range est.Shares(nil) {
			if s != want[i] {
				t.Fatalf("%s: estimator seed share[%d] = %v, throughput %v", fix.name, i, s, want[i])
			}
		}
	}
}

// TestEstimatorObserve pins the EWMA arithmetic: est += alpha·(busy/w −
// est) for every machine that moved words, silent machines keep their
// estimate, and the observation counter ticks once per observed round.
func TestEstimatorObserve(t *testing.T) {
	est, err := Adaptive{Alpha: 0.5}.NewEstimator(uniform(2))
	if err != nil {
		t.Fatal(err)
	}
	// Both machines measure cost 3 (machine 0: 20 words / busy 60; machine
	// 1: 40 words / busy 120): est 2 → 2 + 0.5·(3−2) = 2.5.
	est.Observe(trace.Round{
		SendWords: []int{0, 10, 40},
		RecvWords: []int{0, 10, 0},
		Busy:      []float64{0, 60, 120},
	})
	if est.Estimate(0) != 2.5 || est.Estimate(1) != 2.5 || est.Rounds() != 1 {
		t.Fatalf("after round 1: est %v/%v, rounds %d", est.Estimate(0), est.Estimate(1), est.Rounds())
	}
	// Only machine 0 moves: 10 words at cost 8.5 → 2.5 + 0.5·6 = 5.5;
	// machine 1 is silent and keeps 2.5.
	est.Observe(trace.Round{
		SendWords: []int{0, 10, 0},
		Busy:      []float64{0, 85, 0},
	})
	if est.Estimate(0) != 5.5 || est.Estimate(1) != 2.5 || est.Rounds() != 2 {
		t.Fatalf("after round 2: est %v/%v, rounds %d", est.Estimate(0), est.Estimate(1), est.Rounds())
	}
	// An all-silent round (and a round with zero busy time) carries no
	// information: estimates and counter unchanged.
	est.Observe(trace.Round{SendWords: []int{0, 0, 0}, Busy: []float64{0, 0, 0}})
	est.Observe(trace.Round{SendWords: []int{0, 7, 0}, Busy: []float64{0, 0, 0}})
	// Short slices (a truncated scratch record) must not panic or observe.
	est.Observe(trace.Round{SendWords: []int{0, 9}, Busy: []float64{0}})
	est.Observe(trace.Round{})
	if est.Estimate(0) != 5.5 || est.Estimate(1) != 2.5 || est.Rounds() != 2 {
		t.Fatalf("after silent rounds: est %v/%v, rounds %d", est.Estimate(0), est.Estimate(1), est.Rounds())
	}
}

// TestEstimatorAlphaZero: a frozen estimator (alpha 0) never moves off the
// declared costs no matter what it observes — the exact no-op that makes
// adaptive:0 bit-identical to static throughput.
func TestEstimatorAlphaZero(t *testing.T) {
	m := propFixtures()[3].m // straggler
	est, err := Adaptive{Alpha: 0}.NewEstimator(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Throughput{}.Shares(m)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		est.Observe(trace.Round{
			SendWords: []int{0, 100, 100, 100, 100},
			Busy:      []float64{0, 1e6, 7, 1e-3, 4242},
		})
	}
	if est.Rounds() != 5 {
		t.Fatalf("rounds %d, want 5 (alpha 0 still observes, it just never moves)", est.Rounds())
	}
	for i := 0; i < est.K(); i++ {
		if est.Estimate(i) != m.Cost[i] {
			t.Fatalf("est[%d] = %v moved off declared %v under alpha 0", i, est.Estimate(i), m.Cost[i])
		}
	}
	for i, s := range est.Shares(nil) {
		if s != want[i] {
			t.Fatalf("share[%d] = %v, throughput %v", i, s, want[i])
		}
	}
}

// TestEstimatorRejects: out-of-range gains and degenerate machine
// descriptions fail at construction; degenerate cost overrides fail at
// SetEstimate. Nothing may reach Shares with an uninvertible estimate.
func TestEstimatorRejects(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := (Adaptive{Alpha: alpha}.NewEstimator(uniform(3))); err == nil {
			t.Fatalf("alpha %v accepted", alpha)
		}
	}
	bad := uniform(3)
	bad.Cost[1] = 0
	if _, err := (Adaptive{Alpha: 0.5}.NewEstimator(bad)); err == nil {
		t.Fatal("zero declared cost accepted")
	}
	est, err := Adaptive{Alpha: 0.5}.NewEstimator(uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-320} {
		if err := est.SetEstimate(0, cost); err == nil {
			t.Fatalf("SetEstimate(0, %v) accepted", cost)
		}
	}
	if est.Estimate(0) != 2 {
		t.Fatalf("rejected overrides moved the estimate to %v", est.Estimate(0))
	}
}
