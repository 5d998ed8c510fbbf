// Package sched is the placement-policy subsystem: it decides how the
// toolbox primitives split work across heterogeneous small machines.
//
// The paper's model places work uniformly; the heterogeneous cost model
// (DESIGN.md §6) made placement capacity-proportional, which keeps every
// machine inside its per-round cap but ignores speed — a fast-but-small
// machine idles while a slow-but-big one sets the makespan. That assignment
// problem is exactly the heterogeneous-machine query-processing setting of
// Frisk & Koutris ("Parallel Query Processing with Heterogeneous Machines"),
// and the redundant-work mitigation comes from Reisizadeh et al. ("Coded
// Computation over Heterogeneous Clusters"). This package makes the policy
// pluggable:
//
//   - Cap — the capacity-proportional split, share_i = CapShare_i; the
//     default;
//   - Throughput — an LPT-style min-makespan split: share_i proportional to
//     min(CapShare_i, 1/Cost_i relative to the cheapest machine), so
//     slow machines hold less work and a fast-but-small machine is never
//     weighted beyond its memory (see Throughput for what the clip does
//     and does not guarantee about absolute caps);
//   - Speculate — Throughput placement plus redundant execution of the R
//     slowest per-round shards on idle fast machines, first-copy-wins; the
//     speculative copies are charged honestly (mpc.Stats.SpeculationWords
//     and the partner's busy time);
//   - Adaptive — Throughput recomputed online: an EWMA Estimator over the
//     simulator's per-round observations (trace.Round-shaped) replaces the
//     declared costs with measured ones, and the recomputed shares switch
//     in at round boundaries (snapshot-and-switch, DESIGN.md §10) — the
//     policy to reach for when the declared profile is wrong.
//
// A Policy only returns static placement weights; the per-round
// first-copy-wins accounting of Speculate, and the round-barrier
// observe/recompute/switch loop of Adaptive (OnlinePolicy), live in the mpc
// engine (DESIGN.md §8, §10), because only the simulator sees per-round
// traffic and transient slowdown windows. Policies never change what a
// correct algorithm computes — placement moves data between machines, and
// every experiment validates its output against the exact references under
// every policy.
package sched

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Machines describes the cluster to a policy: one entry per small machine.
// Both slices are normalized views the simulator derives from its Profile;
// policies must not mutate them.
type Machines struct {
	// CapShare is the per-machine capacity scale normalized so the largest
	// machine has share 1 (mpc.Cluster.CapShare).
	CapShare []float64
	// Cost is the per-machine time per word, the profile's declaration and
	// what each round charges (mpc.Cluster.WordCost, DESIGN.md §6).
	// Uniform clusters have 2 everywhere.
	Cost []float64
}

// Policy decides the relative share of work each small machine is allotted
// by the placement primitives (prims.DistributeEdges, prims.Sort splitter
// weighting and, through Sort, AggregateByKey's bucket assignment).
type Policy interface {
	// Name labels tables, artifacts and error messages ("cap",
	// "throughput", "speculate:2").
	Name() string
	// Shares returns one positive finite placement weight per machine.
	// Only ratios matter; the primitives normalize. It is an error for a
	// degenerate Machines description (e.g. non-positive Cost) to reach
	// a policy that needs it.
	Shares(m Machines) ([]float64, error)
	// Speculation returns R, the number of slowest per-round shards the
	// simulator redundantly executes on idle fast machines (0 = none).
	Speculation() int
}

// Cap is the capacity-proportional policy: share_i = CapShare_i, the
// placement rule the cost-model subsystem shipped with (Frisk's balancing
// rule). It is the default: a nil mpc.Config.Placement is Cap, and its
// shares take the same path through the simulator as every other policy's.
type Cap struct{}

// Name implements Policy.
func (Cap) Name() string { return "cap" }

// Shares implements Policy: the capacity shares themselves.
func (Cap) Shares(m Machines) ([]float64, error) {
	return slices.Clone(m.CapShare), nil
}

// Speculation implements Policy: Cap never speculates.
func (Cap) Speculation() int { return 0 }

// Throughput is the min-makespan policy: share_i ∝ min(CapShare_i, thr_i)
// where thr_i = 1/Cost_i normalized so the cheapest machine has 1 —
// each machine is asked to hold work proportional to how fast it can move
// it, clipped by its capacity share so a fast-but-small machine is never
// weighted beyond its memory. Note what the clip does and does not
// guarantee: it bounds each machine's weight *relative to the fastest*,
// but because the primitives normalize shares, shrinking the slow
// machines' weights necessarily inflates everyone else's normalized
// fraction above the capacity-proportional allotment (any placement whose
// fractions never exceed Cap's anywhere is Cap itself). Per-machine caps
// are still enforced exactly — by Exchange, loudly — so a workload sized
// to the brim of the Cap split can trip ErrCapacity under Throughput;
// the experiments' workloads leave the usual Õ slack. On a pure
// capacity skew (costs uniform, e.g. Zipf profiles) thr_i = 1 and the
// policy reduces to Cap exactly; on a uniform profile every share is
// exactly 1 and the placement is bit-identical to Cap (tested).
type Throughput struct{}

// Name implements Policy.
func (Throughput) Name() string { return "throughput" }

// Shares implements Policy.
func (Throughput) Shares(m Machines) ([]float64, error) {
	return throughputShares(m, nil)
}

// throughputShares is the one implementation of the min(cap, speed) share
// formula, shared by Throughput, Speculate and the adaptive Estimator (which
// feeds it measured rather than declared costs). Sharing the exact float
// operations is what makes "adaptive at its declared seed == throughput"
// bit-identical rather than merely close. dst is reused when it has the
// right length; otherwise a fresh slice is allocated.
func throughputShares(m Machines, dst []float64) ([]float64, error) {
	shares := dst
	if len(shares) != len(m.Cost) {
		shares = make([]float64, len(m.Cost))
	}
	maxThr := 0.0
	for i, cost := range m.Cost {
		if !(cost > 0) || math.IsInf(cost, 0) {
			return nil, fmt.Errorf("sched: throughput: machine %d has per-word cost %v, want positive finite", i, cost)
		}
		shares[i] = 1 / cost
		if shares[i] > maxThr {
			maxThr = shares[i]
		}
	}
	for i := range shares {
		shares[i] /= maxThr
		if cs := m.CapShare[i]; shares[i] > cs {
			shares[i] = cs
		}
	}
	return shares, nil
}

// Speculation implements Policy: plain Throughput never speculates.
func (Throughput) Speculation() int { return 0 }

// Speculate is Throughput placement plus redundant execution: each round
// the R slowest shards (the largest per-machine word-times, where static
// placement cannot help — broadcasts, samples, transient slowdown windows)
// are mirrored onto the fastest machines outside that slow set,
// first-copy-wins. The simulator launches a copy only when the partner's
// predicted finish beats the victim's, and charges every launched copy:
// the mirrored words land in Stats.SpeculationWords and the partner's busy
// time (DESIGN.md §8). R = 0 is exactly Throughput.
type Speculate struct {
	R int
}

// Name implements Policy.
func (s Speculate) Name() string { return fmt.Sprintf("speculate:%d", s.R) }

// Shares implements Policy: identical to Throughput.
func (s Speculate) Shares(m Machines) ([]float64, error) { return Throughput{}.Shares(m) }

// Speculation implements Policy.
func (s Speculate) Speculation() int { return s.R }

// Parse builds a policy from a CLI spec:
//
//	cap              capacity-proportional (the default)
//	throughput       min-makespan split by min(cap, 1/cost)
//	speculate:R      throughput + redundant execution of the R slowest shards
//	adaptive[:ALPHA] throughput shares recomputed per round from measured
//	                 costs, EWMA gain ALPHA in [0,1] (default 0.5; 0 freezes
//	                 the declared estimate and is exactly throughput)
//
// The empty spec and "cap" return (nil, nil): a nil policy is the default
// Cap placement, mirroring how ParseProfile maps "uniform" to nil.
func Parse(spec string) (Policy, error) {
	switch spec {
	case "", "cap":
		return nil, nil
	case "throughput":
		return Throughput{}, nil
	case "adaptive":
		return Adaptive{Alpha: DefaultAlpha}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "speculate:"); ok {
		r, err := strconv.Atoi(rest)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("sched: placement %q: want speculate:R with integer R >= 0", spec)
		}
		return Speculate{R: r}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "adaptive:"); ok {
		a, err := strconv.ParseFloat(rest, 64)
		if err != nil || !(a >= 0) || a > 1 {
			return nil, fmt.Errorf("sched: placement %q: want adaptive[:ALPHA] with ALPHA in [0,1]", spec)
		}
		return Adaptive{Alpha: a}, nil
	}
	return nil, fmt.Errorf("sched: unknown placement %q (cap, throughput, speculate:R, adaptive[:ALPHA])", spec)
}
