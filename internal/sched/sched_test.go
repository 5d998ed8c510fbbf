package sched

import (
	"math"
	"testing"
)

func uniform(k int) Machines {
	m := Machines{CapShare: make([]float64, k), Cost: make([]float64, k)}
	for i := 0; i < k; i++ {
		m.CapShare[i] = 1
		m.Cost[i] = 2
	}
	return m
}

// TestPolicyShares pins each policy's share vector on the canonical machine
// descriptions: uniform, capacity-skewed (zipf-like), speed-skewed
// (straggler-like), and both at once.
func TestPolicyShares(t *testing.T) {
	straggler := uniform(4)
	straggler.Cost[3] = 9 // speed 1/8: 8 + 1

	zipf := uniform(4)
	zipf.CapShare = []float64{1, 0.5, 0.25, 0.125}

	both := Machines{
		CapShare: []float64{1, 0.1, 1, 1},
		Cost:     []float64{2, 2, 2, 18},
	}

	cases := []struct {
		name string
		pol  Policy
		m    Machines
		want []float64
	}{
		{"cap/uniform", Cap{}, uniform(4), []float64{1, 1, 1, 1}},
		{"cap/zipf", Cap{}, zipf, []float64{1, 0.5, 0.25, 0.125}},
		// Cap ignores speeds entirely: the straggler keeps a full share.
		{"cap/straggler", Cap{}, straggler, []float64{1, 1, 1, 1}},
		// Throughput on a uniform cluster is exactly Cap.
		{"throughput/uniform", Throughput{}, uniform(4), []float64{1, 1, 1, 1}},
		// Speed-skew only: the straggler's share is its relative speed 2/9.
		{"throughput/straggler", Throughput{}, straggler, []float64{1, 1, 1, 2.0 / 9}},
		// Capacity-skew only: throughput clips at the capacity share, so it
		// reduces to Cap (speeds are uniform, thr_i = 1 everywhere).
		{"throughput/zipf", Throughput{}, zipf, []float64{1, 0.5, 0.25, 0.125}},
		// Both: machine 1 is capacity-bound (0.1), machine 3 speed-bound (2/18).
		{"throughput/both", Throughput{}, both, []float64{1, 0.1, 1, 2.0 / 18}},
		// Speculate places exactly like Throughput.
		{"speculate/straggler", Speculate{R: 2}, straggler, []float64{1, 1, 1, 2.0 / 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.pol.Shares(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d shares, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-12 {
					t.Fatalf("share[%d] = %v, want %v (full: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestThroughputNeverExceedsCap: the clip min(cap, thr) bounds every raw
// share by the machine's capacity share, so a fast-but-small machine is
// never weighted beyond its memory. (This is a relative bound: after
// normalization the fast machines' fractions legitimately exceed Cap's —
// absolute caps are enforced by Exchange, not promised by the policy.)
func TestThroughputNeverExceedsCap(t *testing.T) {
	m := Machines{
		CapShare: []float64{1, 0.3, 0.05, 0.6},
		Cost:     []float64{2, 3, 2, 40},
	}
	shares, err := Throughput{}.Shares(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shares {
		if s > m.CapShare[i]+1e-15 {
			t.Fatalf("machine %d: throughput share %v exceeds capacity share %v", i, s, m.CapShare[i])
		}
		if !(s > 0) {
			t.Fatalf("machine %d: non-positive share %v", i, s)
		}
	}
}

// TestThroughputRejectsDegenerateCost: a non-positive or infinite per-word
// cost cannot be inverted into a throughput.
func TestThroughputRejectsDegenerateCost(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		m := uniform(3)
		m.Cost[1] = bad
		if _, err := (Throughput{}).Shares(m); err == nil {
			t.Fatalf("Cost %v accepted", bad)
		}
	}
}

// TestParse covers the CLI specs: defaults map to nil (like ParseProfile's
// "uniform"), the named policies parse, and malformed specs are rejected.
func TestParse(t *testing.T) {
	for _, spec := range []string{"", "cap"} {
		p, err := Parse(spec)
		if err != nil || p != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, p, err)
		}
	}
	p, err := Parse("throughput")
	if err != nil || p.Name() != "throughput" || p.Speculation() != 0 {
		t.Fatalf("Parse(throughput) = %v, %v", p, err)
	}
	p, err = Parse("speculate:3")
	if err != nil || p.Name() != "speculate:3" || p.Speculation() != 3 {
		t.Fatalf("Parse(speculate:3) = %v, %v", p, err)
	}
	p, err = Parse("speculate:0")
	if err != nil || p.Speculation() != 0 {
		t.Fatalf("Parse(speculate:0) = %v, %v", p, err)
	}
	for _, bad := range []string{"speculate", "speculate:", "speculate:-1", "speculate:x", "lpt", "cap:2"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}
