package fault

import (
	"strings"
	"testing"
)

func TestZeroPlanInactive(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Fatal("nil plan active")
	}
	if (&Plan{}).Active() {
		t.Fatal("zero plan active")
	}
	if _, crashed := nilPlan.CrashAt(5, 0, 7); crashed {
		t.Fatal("nil plan crashed")
	}
	if f := nilPlan.SlowFactor(5, 0); f != 1 {
		t.Fatalf("nil plan slow factor %v", f)
	}
	for _, p := range []*Plan{
		{Interval: 4},
		{Crashes: []Crash{{Round: 1, Machine: 0}}},
		{CrashRate: 0.1},
		{Slowdowns: []Slowdown{{Machine: 0, From: 1, To: 2, Factor: 2}}},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v not active", p)
		}
	}
}

func TestExplicitCrashSchedule(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Round: 3, Machine: 1, RestartAfter: 2}}}
	if _, crashed := p.CrashAt(3, 0, 7); crashed {
		t.Fatal("wrong machine crashed")
	}
	if _, crashed := p.CrashAt(2, 1, 7); crashed {
		t.Fatal("wrong round crashed")
	}
	restart, crashed := p.CrashAt(3, 1, 7)
	if !crashed || restart != 2 {
		t.Fatalf("crash at (3,1): restart=%d crashed=%v", restart, crashed)
	}
}

// TestRateScheduleDeterministic: the rate-derived schedule is a pure
// function of (seed, round, machine), hits roughly the requested rate, and
// changes with the seed.
func TestRateScheduleDeterministic(t *testing.T) {
	p := &Plan{CrashRate: 0.05, RestartAfter: 1}
	count := func(seed uint64) int {
		n := 0
		for r := 1; r <= 200; r++ {
			for m := 0; m < 16; m++ {
				if restart, crashed := p.CrashAt(r, m, seed); crashed {
					if restart != 1 {
						t.Fatalf("rate crash restart %d, want plan default 1", restart)
					}
					n++
				}
			}
		}
		return n
	}
	a, b := count(7), count(7)
	if a != b {
		t.Fatalf("same seed, different schedules: %d vs %d", a, b)
	}
	// 200×16 trials at rate 0.05: expect 160, allow a wide deterministic band.
	if a < 80 || a > 260 {
		t.Fatalf("crash count %d far from expectation 160", a)
	}
	if c := count(8); c == a {
		t.Fatalf("seed change did not move the schedule (%d)", a)
	}
	// The plan's own Seed pins the schedule regardless of the cluster seed.
	p.Seed = 99
	if count(7) != count(123) {
		t.Fatal("plan seed not overriding cluster seed")
	}
}

func TestSlowFactorWindows(t *testing.T) {
	p := &Plan{Slowdowns: []Slowdown{
		{Machine: 2, From: 5, To: 10, Factor: 4},
		{Machine: 2, From: 8, To: 9, Factor: 2},
	}}
	if !p.HasSlowdowns() {
		t.Fatal("HasSlowdowns false")
	}
	cases := []struct {
		round, machine int
		want           float64
	}{
		{4, 2, 1}, {5, 2, 4}, {10, 2, 4}, {11, 2, 1},
		{8, 2, 8}, // overlapping windows multiply
		{8, 1, 1},
	}
	for _, c := range cases {
		if got := p.SlowFactor(c.round, c.machine); got != c.want {
			t.Fatalf("SlowFactor(%d, %d) = %v, want %v", c.round, c.machine, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []struct {
		name string
		p    Plan
		want string
	}{
		{"interval", Plan{Interval: -1}, "interval"},
		{"rate", Plan{CrashRate: 1.5}, "rate"},
		{"restart", Plan{RestartAfter: -2}, "restart"},
		{"crash machine", Plan{Crashes: []Crash{{Round: 1, Machine: 9}}}, "machine 9"},
		{"crash round", Plan{Crashes: []Crash{{Round: 0, Machine: 1}}}, "round"},
		{"crash restart", Plan{Crashes: []Crash{{Round: 1, Machine: 1, RestartAfter: -1}}}, "restart"},
		{"slow machine", Plan{Slowdowns: []Slowdown{{Machine: -1, From: 1, To: 2, Factor: 2}}}, "machine -1"},
		{"slow window", Plan{Slowdowns: []Slowdown{{Machine: 0, From: 3, To: 1, Factor: 2}}}, "window"},
		{"slow factor", Plan{Slowdowns: []Slowdown{{Machine: 0, From: 1, To: 2, Factor: 0.5}}}, "factor"},
		{"duplicate crash", Plan{Crashes: []Crash{{Round: 3, Machine: 1}, {Round: 4, Machine: 1}, {Round: 3, Machine: 1, RestartAfter: 5}}}, "machine 1 crashes twice at round 3"},
	}
	for _, tc := range bad {
		err := tc.p.Validate(4)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	ok := Plan{
		Interval:  8,
		Crashes:   []Crash{{Round: 12, Machine: 3, RestartAfter: 2}},
		CrashRate: 0.01,
		Slowdowns: []Slowdown{{Machine: 0, From: 1, To: 100, Factor: 16}},
	}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestParsePlan(t *testing.T) {
	if p, err := ParsePlan("", 8); err != nil || p != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
	if p, err := ParsePlan("none", 8); err != nil || p != nil {
		t.Fatalf("none spec: %v %v", p, err)
	}
	p, err := ParsePlan("ckpt:8+crash:12:3:2+rate:0.01+slow:1:5:9:4+restart:1", 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Interval != 8 || p.CrashRate != 0.01 || p.RestartAfter != 1 {
		t.Fatalf("parsed plan %+v", p)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Round: 12, Machine: 3, RestartAfter: 2}) {
		t.Fatalf("parsed crashes %+v", p.Crashes)
	}
	if len(p.Slowdowns) != 1 || p.Slowdowns[0] != (Slowdown{Machine: 1, From: 5, To: 9, Factor: 4}) {
		t.Fatalf("parsed slowdowns %+v", p.Slowdowns)
	}
	if p.Name == "" {
		t.Fatal("name not recorded")
	}
	if p, err = ParsePlan("rate:0.005:42", 8); err != nil || p.Seed != 42 {
		t.Fatalf("rate seed: %+v %v", p, err)
	}

	for _, bad := range []string{
		"nope", "ckpt", "ckpt:x", "ckpt:1.5", "crash:1", "crash:1:9", "crash:0:1",
		"rate:2", "slow:1:5:9", "slow:1:9:5:4", "slow:9:1:2:4", "restart:-1",
		"ckpt:8+bogus:1",
	} {
		if _, err := ParsePlan(bad, 8); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestParsePlanRefusesRepeats: a clause that would silently override or
// shadow an earlier one is refused, naming it — a second ckpt, rate or
// restart used to win over the first, and a second crash of one machine at
// one round lost to the first (CrashAt returns the first match). Slowdown
// windows may repeat, because overlapping windows multiply, and crashes of
// one machine at different rounds or of different machines at one round
// are distinct events.
func TestParsePlanRefusesRepeats(t *testing.T) {
	for _, tc := range []struct {
		spec, want string // want "" = accepted
	}{
		{"ckpt:2+ckpt:4", `clause "ckpt:4" repeats ckpt`},
		{"ckpt:2+crash:3:1+ckpt:2", `clause "ckpt:2" repeats ckpt`},
		{"rate:0.1+rate:0.2", `clause "rate:0.2" repeats rate`},
		{"rate:0.1+rate:0.1:9", `clause "rate:0.1:9" repeats rate`},
		{"restart:1+restart:2", `clause "restart:2" repeats restart`},
		{"crash:3:1:0+crash:3:1:5", `clause "crash:3:1:5" repeats the crash of machine 1 at round 3`},
		{"crash:3:1+crash:4:2+crash:3:1", `clause "crash:3:1" repeats the crash of machine 1 at round 3`},
		{"slow:0:1:4:2+slow:0:1:4:2", ""},
		{"crash:3:1+crash:4:1+crash:3:2", ""},
		{"ckpt:2+rate:0.1+restart:1+crash:3:1", ""},
	} {
		p, err := ParsePlan(tc.spec, 8)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("ParsePlan(%q): %v", tc.spec, err)
		case tc.want != "" && err == nil:
			t.Errorf("ParsePlan(%q) accepted %+v, want an error naming %s", tc.spec, p, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("ParsePlan(%q): error %q does not say %s", tc.spec, err, tc.want)
		}
	}
}
