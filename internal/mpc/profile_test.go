package mpc

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestProfileGenerators(t *testing.T) {
	const k = 16
	u := UniformProfile(k)
	for i := 0; i < k; i++ {
		if u.CapScale[i] != 1 || u.Cost[i] != 2 {
			t.Fatalf("uniform profile not all ones at %d", i)
		}
	}
	z := ZipfProfile(k, 1, 0.1)
	if z.CapScale[0] != 1 {
		t.Fatalf("zipf machine 0 scale %v, want 1", z.CapScale[0])
	}
	for i := 1; i < k; i++ {
		if z.CapScale[i] > z.CapScale[i-1] {
			t.Fatalf("zipf scales not non-increasing at %d", i)
		}
		if z.CapScale[i] < 0.1 {
			t.Fatalf("zipf floor violated at %d: %v", i, z.CapScale[i])
		}
	}
	b := BimodalProfile(k, 0.25, 4)
	slow := 0
	for i := 0; i < k; i++ {
		if b.Cost[i] != 2 {
			slow++
			if b.Cost[i] != 8 {
				t.Fatalf("bimodal slow machine %d: cost %v", i, b.Cost[i])
			}
		}
	}
	if slow != 4 {
		t.Fatalf("bimodal slow count %d, want 4", slow)
	}
	s := StragglerProfile(k, 2, 8)
	for i := 0; i < k; i++ {
		want := 2.0
		if i >= k-2 {
			want = 9
		}
		if s.Cost[i] != want || s.CapScale[i] != 1 {
			t.Fatalf("straggler machine %d: %v/%v", i, s.Cost[i], s.CapScale[i])
		}
	}
}

// TestProfileCostsGolden pins every machine's WordCost, the large machine's
// included, bit for bit: each generator prices its speed and bandwidth
// factors as 1/speed + 1/bandwidth, and a rewrite that folds the expression
// (1/(1/49) + 1 is not 50 in float64) would move every makespan built on it.
func TestProfileCostsGolden(t *testing.T) {
	const k = 8
	custom, err := ParseProfile("custom:0=0.3,3=0.25", k)
	if err != nil {
		t.Fatal(err)
	}
	beefy := UniformProfile(k)
	beefy.LargeCost = 1.0 / 32
	const two, eight, nine = 0x4000000000000000, 0x4020000000000000, 0x4022000000000000
	const ninetyEight, fifty = 0x4058800000000001, 0x4049000000000001
	for _, tc := range []struct {
		p    *Profile
		want [1 + k]uint64 // Large, then small machines 0..k-1
	}{
		{UniformProfile(k), [1 + k]uint64{two, two, two, two, two, two, two, two, two}},
		{ZipfProfile(k, 0.8, 0.05), [1 + k]uint64{two, two, two, two, two, two, two, two, two}},
		{BimodalProfile(k, 0.25, 4), [1 + k]uint64{two, two, two, two, two, two, two, eight, eight}},
		{BimodalProfile(k, 0.5, 49), [1 + k]uint64{two, two, two, two, two, ninetyEight, ninetyEight, ninetyEight, ninetyEight}},
		{StragglerProfile(k, 2, 8), [1 + k]uint64{two, two, two, two, two, two, two, nine, nine}},
		{StragglerProfile(k, 1, 49), [1 + k]uint64{two, two, two, two, two, two, two, two, fifty}},
		{custom, [1 + k]uint64{two, 0x4011555555555556, two, two, 0x4014000000000000, two, two, two, two}},
		{beefy, [1 + k]uint64{0x3fa0000000000000, two, two, two, two, two, two, two, two}},
	} {
		c := newTest(t, Config{N: 4096, M: 16384, K: k, Seed: 1, Profile: tc.p})
		for id := Large; id < k; id++ {
			if got := math.Float64bits(c.WordCost(id)); got != tc.want[1+id] {
				t.Errorf("%s: WordCost(%d) = %v (%#x), want %v (%#x)", tc.p.Name, id,
					c.WordCost(id), got, math.Float64frombits(tc.want[1+id]), tc.want[1+id])
			}
		}
	}
}

func TestParseProfile(t *testing.T) {
	if p, err := ParseProfile("", 8); err != nil || p != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
	if p, err := ParseProfile("uniform", 8); err != nil || p != nil {
		t.Fatalf("uniform spec: %v %v", p, err)
	}
	p, err := ParseProfile("zipf:1.2", 8)
	if err != nil || len(p.CapScale) != 8 {
		t.Fatalf("zipf spec: %+v %v", p, err)
	}
	if p, err = ParseProfile("straggler:2:8", 8); err != nil || p.Cost[7] != 9 {
		t.Fatalf("straggler spec: %+v %v", p, err)
	}
	if p, err = ParseProfile("bimodal:0.5:4", 8); err != nil || p.Cost[7] != 8 {
		t.Fatalf("bimodal spec: %+v %v", p, err)
	}
	for _, bad := range []string{"nope", "zipf", "zipf:x", "bimodal:2:4", "straggler:1:0", "bimodal:0.5",
		"straggler:0:8", "straggler:2.9:8"} {
		if _, err := ParseProfile(bad, 8); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParseProfileCustom pins the custom:I=SPEED form: per-machine speed
// overrides, with duplicates and bad speeds rejected by messages that name
// the offending token.
func TestParseProfileCustom(t *testing.T) {
	p, err := ParseProfile("custom:0=0.5,3=0.25", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 2, 5, 2, 2, 2, 2}
	for i, cost := range p.Cost {
		if cost != want[i] {
			t.Fatalf("Cost[%d] = %v, want %v", i, cost, want[i])
		}
	}
	for i := range p.CapScale {
		if p.CapScale[i] != 1 {
			t.Fatalf("custom touched capacity at machine %d", i)
		}
	}

	rejects := []struct {
		spec string
		want string // substring the error must contain (the offending token)
	}{
		{"custom", "want custom:"},
		{"custom:", "want custom:"},
		{"custom:0", `token "0"`},
		{"custom:x=1", `token "x=1"`},
		{"custom:8=1", `token "8=1"`},             // index out of range for k=8
		{"custom:-1=1", `token "-1=1"`},           // negative machine index
		{"custom:2=0.5,2=0.25", `token "2=0.25"`}, // duplicate machine index
		{"custom:2=0.5,2=0.25", "repeats machine index 2"},
		{"custom:1=-0.5", `token "1=-0.5"`}, // negative speed
		{"custom:1=-0.5", "positive"},
		{"custom:1=0", `token "1=0"`}, // zero speed
		{"custom:1=zz", `token "1=zz"`},
		{"custom:1=NaN", "positive finite"},
		{"custom:1=+Inf", "positive finite"},
	}
	for _, tc := range rejects {
		_, err := ParseProfile(tc.spec, 8)
		if err == nil {
			t.Fatalf("spec %q accepted", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("spec %q: error %q does not name %q", tc.spec, err, tc.want)
		}
	}

	// A parsed custom profile must survive cluster construction and slow
	// only the named machines' makespan contribution.
	cfg := Config{N: 64, M: 256, Seed: 1}
	cfg.Profile, err = ParseProfile("custom:1=0.5", cfg.DeriveK())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidation(t *testing.T) {
	base := Config{N: 64, M: 256, Seed: 1}
	k := base.DeriveK()
	short := base
	short.Profile = &Profile{CapScale: []float64{1, 1}}
	if k != 2 {
		if _, err := New(short); err == nil {
			t.Fatal("short CapScale accepted")
		}
	}
	neg := base
	neg.Profile = &Profile{Cost: make([]float64, k)} // zeros are invalid costs
	if _, err := New(neg); err == nil {
		t.Fatal("zero costs accepted")
	}
	inf := base
	inf.Profile = UniformProfile(k)
	inf.Profile.Cost[0] = math.Inf(1)
	if _, err := New(inf); err == nil {
		t.Fatal("infinite cost accepted")
	}
	nan := base
	nan.Profile = &Profile{RoundLatency: math.NaN()}
	if _, err := New(nan); err == nil {
		t.Fatal("NaN round latency accepted")
	}
	lspd := base
	lspd.Profile = &Profile{LargeCost: math.Inf(1)}
	if _, err := New(lspd); err == nil {
		t.Fatal("infinite large cost accepted")
	}
}

// TestPerMachineCaps: a capacity-skewed profile yields per-machine caps, and
// violations name the offending machine and its own cap.
func TestPerMachineCaps(t *testing.T) {
	cfg := Config{N: 64, M: 256, Seed: 1}
	k := cfg.DeriveK()
	p := UniformProfile(k)
	p.CapScale[2] = 0.25
	cfg.Profile = p
	c := newTest(t, cfg)

	if c.SmallCapOf(2) >= c.SmallCapOf(1) {
		t.Fatalf("machine 2 cap %d not reduced vs %d", c.SmallCapOf(2), c.SmallCapOf(1))
	}
	if c.MinSmallCap() != c.SmallCapOf(2) {
		t.Fatalf("MinSmallCap %d, want machine 2's %d", c.MinSmallCap(), c.SmallCapOf(2))
	}

	// Receive-side violation on machine 2 only: the same volume is fine
	// for a full-cap machine.
	over := c.SmallCapOf(2) + 1
	outs := make([][]Msg, k)
	outs[0] = []Msg{{To: 1, Words: over}}
	if _, _, err := c.Exchange(outs, nil); err != nil {
		t.Fatalf("full-cap machine rejected %d words: %v", over, err)
	}
	outs = make([][]Msg, k)
	outs[0] = []Msg{{To: 2, Words: over}}
	_, _, err := c.Exchange(outs, nil)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
	for _, want := range []string{"machine 2", "cap"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}

	// Send-side violation reports machine 2's own (reduced) cap.
	outs = make([][]Msg, k)
	outs[2] = []Msg{{To: 0, Words: over}}
	_, _, err = c.Exchange(outs, nil)
	if !errors.Is(err, ErrCapacity) || !strings.Contains(err.Error(), "machine 2 sent") {
		t.Fatalf("send violation: %v", err)
	}
}

// TestMakespanAccounting pins the DESIGN.md §6 formula on a hand-checked
// round: latency + max_i w_i·(1/speed_i + 1/bw_i).
func TestMakespanAccounting(t *testing.T) {
	cfg := Config{N: 64, M: 256, Seed: 1}
	k := cfg.DeriveK()
	p := UniformProfile(k)
	p.Cost[1] = 1/0.5 + 1 // machine 1 computes at half speed
	cfg.Profile = p
	c := newTest(t, cfg)

	outs := make([][]Msg, k)
	outs[0] = []Msg{{To: 1, Words: 10}}
	if _, _, err := c.Exchange(outs, nil); err != nil {
		t.Fatal(err)
	}
	// Machine 0 moved 10 words at unit cost: t = 10·(1+1) = 20.
	// Machine 1 moved 10 words at speed ½:  t = 10·(2+1) = 30.
	want := 1.0 + 30.0
	if got := c.Stats().Makespan; got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
	if c.BusyTime(0) != 20 || c.BusyTime(1) != 30 {
		t.Fatalf("busy times %v/%v, want 20/30", c.BusyTime(0), c.BusyTime(1))
	}

	// A silent round still pays the barrier latency.
	if _, _, err := c.Exchange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Makespan; got != want+1 {
		t.Fatalf("makespan after empty round %v, want %v", got, want+1)
	}
}

// TestBusyImbalanceEdgeCases pins the documented degenerate behavior: 0 —
// never NaN — on the k == 0 cluster (unreachable through New, which floors
// K at 2, but presentable as a zero-value Cluster) and on clusters where no
// small-machine traffic has flowed, with and without the large machine.
func TestBusyImbalanceEdgeCases(t *testing.T) {
	var zero Cluster
	if got := zero.BusyImbalance(); got != 0 {
		t.Fatalf("zero-value cluster imbalance = %v, want 0", got)
	}

	for _, noLarge := range []bool{false, true} {
		c := newTest(t, Config{N: 64, M: 256, Seed: 1, NoLarge: noLarge})
		if got := c.BusyImbalance(); got != 0 {
			t.Fatalf("noLarge=%v: idle cluster imbalance = %v, want 0", noLarge, got)
		}
		// One lopsided round: only machine 0 speaks. Imbalance is now
		// defined (max/mean over k machines) and must be at least 1.
		outs := make([][]Msg, c.K())
		outs[0] = []Msg{{To: 1, Words: 3, Data: "x"}}
		if _, _, err := c.Exchange(outs, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.BusyImbalance(); got < 1 {
			t.Fatalf("noLarge=%v: imbalance after traffic = %v, want >= 1", noLarge, got)
		}
	}
}

// TestUniformProfileBitIdentical: an explicit all-ones profile produces the
// same caps, stats and makespan as the nil default.
func TestUniformProfileBitIdentical(t *testing.T) {
	run := func(p *Profile) (Stats, int) {
		cfg := Config{N: 1024, M: 8192, Seed: 5, Profile: p}
		c := newTest(t, cfg)
		outs, outLarge := buildHeavyRound(c)
		if _, _, err := c.Exchange(outs, outLarge); err != nil {
			t.Fatal(err)
		}
		return c.Stats(), c.SmallCapOf(0)
	}
	stNil, capNil := run(nil)
	cfg := Config{N: 1024, M: 8192}
	stU, capU := run(UniformProfile(cfg.DeriveK()))
	if stNil != stU || capNil != capU {
		t.Fatalf("explicit uniform differs: %+v/%d vs %+v/%d", stNil, capNil, stU, capU)
	}
	if stNil.Makespan <= 0 {
		t.Fatal("makespan not accrued")
	}
}
