package mpc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Profile generalizes the cluster from "K identical small machines" to a
// per-machine capacity/cost description, the heterogeneous-capacity setting
// of Frisk & Koutris ("Parallel Query Processing with Heterogeneous
// Machines") layered on top of the paper's model. A nil Profile — or
// UniformProfile — reproduces the paper's uniform cluster exactly: all
// scales 1, makespan a pure function of the round structure.
//
// A machine is two numbers:
//
//   - CapScale scales small machine i's per-round word capacity (its Õ(n^γ)
//     memory), relative to the uniform baseline of 1; placement primitives
//     (prims.DistributeEdges, prims.Sort) allot load proportionally to it;
//   - Cost is the simulated time machine i takes per word it sends or
//     receives, computing and moving it; the uniform baseline is 2, one
//     time unit of compute and one of link per word.
//
// Capacity changes what executions are legal (caps are enforced per
// machine); Cost changes only the simulated time (makespan), never the
// round structure — a cost-skewed run is bit-identical to the uniform run
// except for its clock. See DESIGN.md §6 for the makespan formula.
type Profile struct {
	Name string // for table/artifact labels; generators fill it in

	// Per small machine; nil means "all 1" for CapScale and "all 2" for
	// Cost. Non-nil slices must have exactly K entries of positive finite
	// values.
	CapScale []float64
	Cost     []float64

	// LargeCost is the large machine's time per word; 0 means 2.
	LargeCost float64

	// RoundLatency is the fixed synchronization cost charged per round
	// (the barrier); 0 means 1. With all scales 1 the makespan is
	// Rounds·RoundLatency plus the traffic term.
	RoundLatency float64
}

// uniformCost is the default time per word, unit compute plus unit link.
const uniformCost = 2

// wordCost is the time per word of a machine computing at speed and moving
// words over a link of the given bandwidth. The generators below price
// their speed and bandwidth factors through it, so a cost is always this
// expression of its factors, never a rounded shortcut of it.
func wordCost(speed, bandwidth float64) float64 { return 1/speed + 1/bandwidth }

// UniformProfile returns the explicit form of the default profile: k small
// machines, every capacity scale 1 and every cost 2. New(cfg) with this
// profile is bit-identical to New(cfg) with Profile nil (tested).
func UniformProfile(k int) *Profile {
	return &Profile{
		Name:     "uniform",
		CapScale: fill(k, 1),
		Cost:     fill(k, uniformCost),
	}
}

// ZipfProfile returns a capacity-skewed profile: machine i's CapScale is
// (i+1)^-s, clamped below at floor (machine 0 is the largest, scale 1).
// Costs stay 2, so the skew is purely in how much each machine may hold and
// move per round; capacity-aware primitives must allot proportionally or
// the small-cap tail violates its caps. floor keeps every
// capacity Θ(n^γ) — the skew lives in the constant, as in Frisk's model of
// machines with capacities within constant factors. floor <= 0 defaults to
// 0.05.
func ZipfProfile(k int, s, floor float64) *Profile {
	if floor <= 0 {
		floor = 0.05
	}
	p := &Profile{
		Name:     fmt.Sprintf("zipf(s=%g)", s),
		CapScale: make([]float64, k),
		Cost:     fill(k, uniformCost),
	}
	for i := range p.CapScale {
		scale := math.Pow(float64(i+1), -s)
		if scale < floor {
			scale = floor
		}
		p.CapScale[i] = scale
	}
	return p
}

// BimodalProfile returns a fast/slow cluster: the last ⌈slowFrac·k⌉ machines
// compute at speed 1/factor over a link of bandwidth 1/factor, the rest at
// 1, and cost wordCost of those factors. Capacities stay uniform, so the
// round structure is identical to the uniform run and only the makespan
// changes (Reisizadeh et al.'s heterogeneous-cluster setting).
func BimodalProfile(k int, slowFrac, factor float64) *Profile {
	slow := int(math.Ceil(slowFrac * float64(k)))
	if slow > k {
		slow = k
	}
	p := &Profile{
		Name:     fmt.Sprintf("bimodal(slow=%g×%g)", slowFrac, factor),
		CapScale: fill(k, 1),
		Cost:     fill(k, uniformCost),
	}
	for i := k - slow; i < k; i++ {
		p.Cost[i] = wordCost(1/factor, 1/factor)
	}
	return p
}

// StragglerProfile returns a straggler-tail profile: the last `stragglers`
// machines (at least 1, at most k) compute at speed 1/slowdown over a unit
// link, costing wordCost(1/slowdown, 1); capacities stay uniform. Round
// counts match the uniform run exactly; the makespan shows the stragglers
// dominating wall-clock.
func StragglerProfile(k, stragglers int, slowdown float64) *Profile {
	if stragglers < 1 {
		stragglers = 1
	}
	if stragglers > k {
		stragglers = k
	}
	p := &Profile{
		Name:     fmt.Sprintf("straggler(%d×%g)", stragglers, slowdown),
		CapScale: fill(k, 1),
		Cost:     fill(k, uniformCost),
	}
	for i := k - stragglers; i < k; i++ {
		p.Cost[i] = wordCost(1/slowdown, 1)
	}
	return p
}

// ParseProfile builds a profile for a k-machine cluster from a CLI spec:
//
//	uniform
//	zipf:S[:FLOOR]          e.g. zipf:1.2, zipf:0.8:0.1
//	bimodal:SLOWFRAC:FACTOR e.g. bimodal:0.25:4
//	straggler:N:SLOWDOWN    e.g. straggler:2:8
//	custom:I=SPEED[,I=SPEED...]  e.g. custom:0=0.5,3=0.25
//
// The empty spec and "uniform" return nil (the default profile). The custom
// form names individual machines: each token sets one machine's speed, and
// so its cost wordCost(SPEED, 1), on an otherwise uniform profile; duplicate
// machine indices and non-positive speeds are rejected with the offending
// token named.
func ParseProfile(spec string, k int) (*Profile, error) {
	p, err := parseProfileSpec(spec, k)
	if err != nil || p == nil {
		return nil, err
	}
	// Validate at parse time: a degenerate numeric argument (an overflowing
	// zipf exponent, a bimodal factor whose cost overflows to +Inf, …) is a
	// spec error and should be rejected here with the spec named, not
	// deferred until New rejects the cluster.
	if err := p.validate(k); err != nil {
		return nil, fmt.Errorf("mpc: profile %q: %w", spec, err)
	}
	return p, nil
}

// parseProfileSpec dispatches the spec grammar; ParseProfile wraps it with
// the parse-time validation shared by every form.
func parseProfileSpec(spec string, k int) (*Profile, error) {
	if spec == "" || spec == "uniform" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if parts[0] == "custom" {
		return parseCustomProfile(spec, parts[1:], k)
	}
	args := make([]float64, 0, len(parts)-1)
	for _, a := range parts[1:] {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, fmt.Errorf("mpc: profile %q: bad number %q", spec, a)
		}
		args = append(args, v)
	}
	switch parts[0] {
	case "zipf":
		switch len(args) {
		case 1:
			return ZipfProfile(k, args[0], 0), nil
		case 2:
			return ZipfProfile(k, args[0], args[1]), nil
		}
		return nil, fmt.Errorf("mpc: profile %q: want zipf:S[:FLOOR]", spec)
	case "bimodal":
		if len(args) != 2 {
			return nil, fmt.Errorf("mpc: profile %q: want bimodal:SLOWFRAC:FACTOR", spec)
		}
		// The negated comparisons also reject NaN, which would otherwise
		// flow into the slow-machine count as an undefined int conversion.
		if !(args[0] >= 0 && args[0] <= 1) || !(args[1] > 0) {
			return nil, fmt.Errorf("mpc: profile %q: need 0<=slowfrac<=1, factor>0", spec)
		}
		return BimodalProfile(k, args[0], args[1]), nil
	case "straggler":
		if len(args) != 2 || !(args[1] > 0) {
			return nil, fmt.Errorf("mpc: profile %q: want straggler:N:SLOWDOWN with slowdown>0", spec)
		}
		if !(args[0] >= 1) || args[0] != math.Trunc(args[0]) || args[0] > float64(math.MaxInt32) {
			return nil, fmt.Errorf("mpc: profile %q: straggler count must be an integer >= 1", spec)
		}
		return StragglerProfile(k, int(args[0]), args[1]), nil
	}
	return nil, fmt.Errorf("mpc: unknown profile %q (uniform, zipf:…, bimodal:…, straggler:…, custom:…)", spec)
}

// parseCustomProfile parses the custom:I=SPEED[,I=SPEED...] form: explicit
// per-machine speed overrides on a uniform base. Every reject names the
// offending token, so a long machine list stays debuggable.
func parseCustomProfile(spec string, rest []string, k int) (*Profile, error) {
	if len(rest) != 1 || rest[0] == "" {
		return nil, fmt.Errorf("mpc: profile %q: want custom:I=SPEED[,I=SPEED...]", spec)
	}
	p := &Profile{
		Name:     spec,
		CapScale: fill(k, 1),
		Cost:     fill(k, uniformCost),
	}
	seen := make(map[int]bool)
	for _, tok := range strings.Split(rest[0], ",") {
		idxStr, speedStr, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("mpc: profile %q: token %q, want I=SPEED", spec, tok)
		}
		i, err := strconv.Atoi(idxStr)
		if err != nil {
			return nil, fmt.Errorf("mpc: profile %q: token %q: bad machine index %q", spec, tok, idxStr)
		}
		if i < 0 || i >= k {
			return nil, fmt.Errorf("mpc: profile %q: token %q names machine %d outside the cluster's 0..%d", spec, tok, i, k-1)
		}
		if seen[i] {
			return nil, fmt.Errorf("mpc: profile %q: token %q repeats machine index %d", spec, tok, i)
		}
		seen[i] = true
		s, err := strconv.ParseFloat(speedStr, 64)
		if err != nil {
			return nil, fmt.Errorf("mpc: profile %q: token %q: bad speed %q", spec, tok, speedStr)
		}
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("mpc: profile %q: token %q: speed must be a positive finite factor, got %v", spec, tok, s)
		}
		p.Cost[i] = wordCost(s, 1)
	}
	return p, nil
}

// validate checks slice lengths and positivity against the machine count.
func (p *Profile) validate(k int) error {
	check := func(name string, v []float64) error {
		if v == nil {
			return nil
		}
		if len(v) != k {
			return fmt.Errorf("mpc: profile %s has %d entries, cluster has K=%d machines", name, len(v), k)
		}
		for i, x := range v {
			if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("mpc: profile %s[%d] = %v, want a positive finite value", name, i, x)
			}
		}
		return nil
	}
	if err := check("CapScale", p.CapScale); err != nil {
		return err
	}
	if err := check("Cost", p.Cost); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LargeCost", p.LargeCost},
		{"RoundLatency", p.RoundLatency},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mpc: profile %s = %v, want a finite value >= 0 (0 means the default)", f.name, f.v)
		}
	}
	return nil
}

// fill returns k copies of v.
func fill(k int, v float64) []float64 {
	s := make([]float64, k)
	for i := range s {
		s[i] = v
	}
	return s
}
