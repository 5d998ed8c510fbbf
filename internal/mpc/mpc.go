// Package mpc implements the Heterogeneous MPC model of the paper (§2) as an
// executable simulator:
//
//   - one large machine with memory O(n^{1+f} polylog n) words (f = 0 is the
//     near-linear setting studied in most of the paper; f > 0 enables the
//     superlinear variants of Theorems 3.1 and 5.5; the large machine can
//     also be disabled entirely, giving the pure sublinear regime used by
//     the baseline algorithms);
//   - K = ⌈m/n^γ⌉ small machines, each with memory O(n^γ polylog n) words;
//   - computation proceeds in synchronous rounds; in each round every
//     machine may send and receive at most as many words as its capacity.
//
// The simulator enforces the per-round send/receive caps exactly (violations
// are errors, never silent), counts rounds and traffic, runs per-machine
// local computation on goroutines (Cluster.Each — in the model a local step
// is free and cannot fail, so it returns nothing; Cluster.ForSmall where a
// received payload is type-asserted and can), and gives each machine a
// private, deterministic PRNG. One word models one O(log n)-bit quantity (a
// vertex id, a weight, a counter).
//
// Beyond the paper's uniform small machines, a Profile gives every machine
// its own capacity, compute speed and link bandwidth, and Stats.Makespan
// reports the simulated wall-clock under that profile (per round: barrier
// latency plus the busiest machine's word-time). A nil Profile reproduces
// the paper's model bit-for-bit. See Profile and DESIGN.md §6.
package mpc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"hetmpc/internal/fault"
	"hetmpc/internal/metrics"
	"hetmpc/internal/sched"
	"hetmpc/internal/trace"
	"hetmpc/internal/wire"
	"hetmpc/internal/xrand"
)

// Large is the machine id of the large machine. Small machines are 0..K-1.
const Large = -1

// ErrCapacity is wrapped by all communication- and memory-cap violations.
var ErrCapacity = errors.New("mpc: capacity exceeded")

// ErrRounds is returned when a run exceeds the configured round budget
// (a safety valve against non-terminating algorithms).
var ErrRounds = errors.New("mpc: round budget exhausted")

// ErrUnknownSender is wrapped by Exchange when outs names a sender outside
// the cluster (an index at or beyond K holding messages). Before this error
// existed such traffic was silently dropped.
var ErrUnknownSender = errors.New("mpc: sender outside the cluster")

// ErrNeedsLarge is wrapped by every algorithm that requires the large
// machine when run on a NoLarge cluster, always with the algorithm's name
// ("core: MST: %w"), so callers can uniformly detect the condition with
// errors.Is and dispatch to a sublinear baseline instead.
var ErrNeedsLarge = errors.New("requires the large machine (cluster built with NoLarge)")

// Msg is one point-to-point message. Words is the accounted size; Data is
// the payload (typed per algorithm and asserted on receipt).
type Msg struct {
	From  int
	To    int
	Words int
	Data  any
}

// Config parameterizes a cluster. The zero value is not valid; use the
// documented defaults via New.
type Config struct {
	N     int     // number of vertices of the input graph
	M     int     // number of edges of the input graph
	Gamma float64 // small-machine memory exponent γ ∈ (0,1); default 0.5
	F     float64 // extra large-machine exponent f ≥ 0; default 0 (near-linear)
	K     int     // number of small machines; 0 derives ⌈m/n^γ⌉ (min 2)

	// Capacity formula constants: capacity = C · n^exp · ⌈log2 n⌉^LogExp.
	// The paper's Õ hides these; defaults (6, 3) and (8, 3) are generous
	// enough for every algorithm here while still being Õ(n^γ) and
	// Õ(n^{1+f}).
	CSmall      float64
	CLarge      float64
	LogExpSmall int
	LogExpLarge int

	NoLarge   bool   // pure sublinear cluster (baselines)
	Seed      uint64 // master seed; all machine PRNGs derive from it
	MaxRounds int    // safety valve; default 100000

	// Profile describes per-machine heterogeneity (capacity, speed,
	// bandwidth); nil is the paper's uniform cluster. See Profile.
	Profile *Profile

	// Placement is the policy deciding how the placement primitives split
	// work across the small machines (sched.Cap, sched.Throughput,
	// sched.Speculate, sched.Adaptive). Nil is the capacity-proportional
	// default, sched.Cap. Every policy's shares go through the same check
	// and the same placement path. Adaptive policies additionally
	// re-estimate machine speeds from the rounds the run actually executes
	// and re-split at round boundaries (DESIGN.md §10). See sched and
	// DESIGN.md §8.
	Placement sched.Policy

	// Faults is a deterministic fault-injection schedule (crashes,
	// transient slowdowns) plus the checkpoint cadence of the recovery
	// protocol; nil — or an inactive plan — is the reliable cluster,
	// bit-identical to the paper's model. See fault.Plan and DESIGN.md §7.
	Faults *fault.Plan

	// Transport selects how the Exchange deliver phase moves bytes
	// (DESIGN.md §11): nil — or wire.Inproc — is the in-process
	// shared-memory path, bit-identical to the pre-wire engine;
	// wire.NewPipe() routes every round through an AF_UNIX socketpair per
	// machine and wire.NewTCP() through a loopback TCP connection per
	// machine, both byte-identical in outputs and modeled Stats, with the
	// measured bytes surfaced in Stats.WireBytes. The cost model always
	// stays above delivery. A transport belongs to exactly one cluster: New
	// opens its links (an Open failure is New's error, wrapping
	// wire.ErrTransport) and Cluster.Close releases them.
	Transport wire.Transport

	// Metrics, when non-nil, folds every ledger record into the run's
	// metrics snapshot (DESIGN.md §12): run-wide, per-machine and per-phase
	// word and round counters, the round-time histogram and the fault
	// counters — metrics.Fold of the trace timeline, kept live. Like Trace,
	// metrics observe and never perturb — a metered run's Stats are
	// bit-identical to the same run unmetered — and nil is the zero-overhead
	// path. One registry may serve clusters run one after another; it then
	// sums all of their records.
	Metrics *metrics.Registry

	// Trace, when non-nil, collects the structured per-round timeline
	// (DESIGN.md §9): one record per makespan contribution — exchange
	// rounds, checkpoint barriers, crash recoveries — tagged with the
	// phase-span path open at the time (Cluster.Span). Tracing observes
	// and never perturbs: a traced run's Stats are bit-identical to the
	// same run untraced, and nil is the zero-overhead path.
	Trace *trace.Collector
}

// DeriveK returns the number of small machines New would build for cfg,
// so callers can construct per-machine Profiles of the right length before
// calling New.
func (cfg Config) DeriveK() int {
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	k := cfg.K
	if k == 0 {
		k = int(math.Ceil(float64(cfg.M) / math.Pow(float64(cfg.N), gamma)))
	}
	if k < 2 {
		k = 2
	}
	return k
}

// Stats accumulates run metrics. The JSON field names are the stable wire
// format of the bench artifacts (BENCH_*.json); see internal/exp.
type Stats struct {
	Rounds       int   `json:"rounds"`
	Messages     int64 `json:"messages"`
	TotalWords   int64 `json:"total_words"`
	MaxSendWords int   `json:"max_send_words"` // max words sent by one machine in one round
	MaxRecvWords int   `json:"max_recv_words"` // max words received by one machine in one round

	// Makespan is the simulated wall-clock under the machine Profile:
	// Σ over rounds of RoundLatency + max over machines of w_i·WordCost(i),
	// where w_i is the words machine i sent plus received that round
	// (DESIGN.md §6). With a uniform profile it reduces to
	// Rounds + Σ_r 2·max_i w_i(r) — a pure function of the round structure. Under an active fault plan it additionally carries
	// the checkpoint barriers and, per crash barrier, the recovery of its
	// slowest victim: the victims of one barrier recover concurrently
	// (DESIGN.md §7).
	Makespan float64 `json:"makespan"`

	// Fault-tolerance metrics (DESIGN.md §7); all zero on fault-free runs.
	Crashes          int   `json:"crashes"`           // crash events processed
	RecoveryRounds   int   `json:"recovery_rounds"`   // victim-rounds spent detecting, restoring, replaying and waiting out restarts; concurrent victims each count theirs
	Checkpoints      int   `json:"checkpoints"`       // checkpoint barriers taken
	ReplicationWords int64 `json:"replication_words"` // checkpoint replication + crash restore traffic

	// SpeculationWords is the redundant traffic launched by a speculate:R
	// placement policy (DESIGN.md §8): every word of a slow shard mirrored
	// onto a fast partner machine is charged here and in the partner's busy
	// time, so speculation is never free. Zero under cap and throughput.
	SpeculationWords int64 `json:"speculation_words"`

	// WireBytes is the measured byte count the transport put on the wire
	// (frame headers + encoded payloads; DESIGN.md §11), reported beside
	// the modeled word counts it never influences. Always 0 under the
	// in-process shared-memory path.
	WireBytes int64 `json:"wire_bytes"`
}

// Add returns s and d combined: additive fields summed, the running maxima
// (MaxSendWords, MaxRecvWords) maxed.
func (s Stats) Add(d Stats) Stats { return s.merge(d, 1) }

// Sub returns the window between two snapshots of one cluster: additive
// fields are s − before; the running maxima carry s's values, since a
// windowed maximum cannot be recovered from two snapshots.
func (s Stats) Sub(before Stats) Stats { return s.merge(before, -1) }

// Model returns s with its measured side cleared: WireBytes is counted on
// the transport, not modeled, so it stays on the cluster's Stats, and every
// algorithm result carries its span's delta as Model() — the same over every
// transport.
func (s Stats) Model() Stats {
	s.WireBytes = 0
	return s
}

// merge writes the additive/maximum split of Stats down once. sign·x is
// exact, so Add and Sub are bit-identical to += and -=.
func (s Stats) merge(d Stats, sign int) Stats {
	n, f := int64(sign), float64(sign)
	s.Rounds += sign * d.Rounds
	s.Messages += n * d.Messages
	s.TotalWords += n * d.TotalWords
	s.Makespan += f * d.Makespan
	s.Crashes += sign * d.Crashes
	s.RecoveryRounds += sign * d.RecoveryRounds
	s.Checkpoints += sign * d.Checkpoints
	s.ReplicationWords += n * d.ReplicationWords
	s.SpeculationWords += n * d.SpeculationWords
	s.WireBytes += n * d.WireBytes
	if sign > 0 {
		s.MaxSendWords = max(s.MaxSendWords, d.MaxSendWords)
		s.MaxRecvWords = max(s.MaxRecvWords, d.MaxRecvWords)
	}
	return s
}

// Cluster is a running heterogeneous MPC system.
type Cluster struct {
	cfg      Config
	k        int
	smallCap int // base (scale-1) small capacity
	largeCap int
	rngs     []rand.Rand // the large machine's, then small machine i's at 1+i
	stats    Stats
	exch     *exchScratch

	// Heterogeneity state (uniform when cfg.Profile is nil).
	smallCaps   []int     // per-machine capacity: CapScale[i] · smallCap
	minSmallCap int       // min over smallCaps; tree/broadcast sizing bound
	capShare    []float64 // CapScale normalized to max 1; capacity weights
	cost        []float64 // per slot (0=large, 1+i=small): time per word
	busy        []float64 // per slot, accumulated simulated busy time
	latency     float64   // per-round synchronization cost

	// Placement state (sched policy; Cap when cfg.Placement is nil).
	placement  sched.Policy
	placeShare []float64 // per-machine placement weight from the policy
	specR      int       // speculate:R redundancy dial (0 = off)
	spec       *specScratch
	est        *sched.Estimator // adaptive policy's online estimator (nil = static)

	// Fault-injection and recovery engine (nil unless cfg.Faults is an
	// active plan). See recover.go and DESIGN.md §7.
	ft *faultState

	// Per-round trace collector (nil = untraced; see Config.Trace and
	// internal/trace).
	tr *trace.Collector

	// Open phase spans (span.go; tracked only under a collector or registry):
	// the "/"-joined path, and its length at each open depth.
	phase    string
	spanEnds []int

	// Transport-backed delivery state (nil = shared-memory delivery; see
	// wirenet.go and DESIGN.md §11).
	wn *wireNet
}

// New validates cfg, fills defaults and returns a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("mpc: need N >= 2, got %d", cfg.N)
	}
	if cfg.M < 0 {
		return nil, fmt.Errorf("mpc: negative M")
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.5
	}
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("mpc: gamma must be in (0,1), got %f", cfg.Gamma)
	}
	if cfg.F < 0 {
		return nil, fmt.Errorf("mpc: negative f")
	}
	if cfg.CSmall == 0 {
		cfg.CSmall = 6
	}
	if cfg.CLarge == 0 {
		cfg.CLarge = 8
	}
	if cfg.LogExpSmall == 0 {
		cfg.LogExpSmall = 3
	}
	if cfg.LogExpLarge == 0 {
		cfg.LogExpLarge = 3
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 100000
	}
	log2n := 1
	for v := cfg.N; v > 1; v >>= 1 {
		log2n++
	}
	polyS := ipow(log2n, cfg.LogExpSmall)
	polyL := ipow(log2n, cfg.LogExpLarge)
	smallCap := int(cfg.CSmall * math.Pow(float64(cfg.N), cfg.Gamma) * float64(polyS))
	largeCap := int(cfg.CLarge * math.Pow(float64(cfg.N), 1+cfg.F) * float64(polyL))
	k := cfg.DeriveK()
	c := &Cluster{
		cfg:      cfg,
		k:        k,
		smallCap: smallCap,
		largeCap: largeCap,
		rngs:     xrand.Streams(cfg.Seed, k+1),
		exch:     newExchScratch(k),
		tr:       cfg.Trace,
	}
	if err := c.applyProfile(cfg.Profile); err != nil {
		return nil, err
	}
	if err := c.applyPlacement(cfg.Placement); err != nil {
		return nil, err
	}
	if err := c.applyFaults(cfg.Faults); err != nil {
		return nil, err
	}
	if !cfg.NoLarge && largeCap < 4*k {
		return nil, fmt.Errorf("mpc: out of the model envelope: large capacity %d cannot address K=%d machines", largeCap, k)
	}
	// Last: every check above must pass before links are opened, so a
	// rejected Config never holds a transport resource.
	if err := c.openTransport(cfg.Transport); err != nil {
		return nil, err
	}
	return c, nil
}

// applyProfile derives the per-machine capacity/cost state from p (nil =
// uniform).
func (c *Cluster) applyProfile(p *Profile) error {
	if p == nil {
		p = &Profile{}
	}
	if err := p.validate(c.k); err != nil {
		return err
	}
	capScale, cost := p.CapScale, p.Cost
	if capScale == nil {
		capScale = fill(c.k, 1)
	}
	if cost == nil {
		cost = fill(c.k, uniformCost)
	}
	c.latency = cmp.Or(p.RoundLatency, 1)
	c.smallCaps = make([]int, c.k)
	c.capShare = make([]float64, c.k)
	maxScale := 0.0
	for _, s := range capScale {
		maxScale = max(maxScale, s)
	}
	c.minSmallCap = 0
	for i, scale := range capScale {
		w := int(scale * float64(c.smallCap))
		if w < 1 {
			w = 1
		}
		c.smallCaps[i] = w
		c.capShare[i] = scale / maxScale
		if i == 0 || w < c.minSmallCap {
			c.minSmallCap = w
		}
	}
	c.cost = append([]float64{cmp.Or(p.LargeCost, uniformCost)}, cost...)
	c.busy = make([]float64, c.k+1)
	return nil
}

// K returns the number of small machines.
func (c *Cluster) K() int { return c.k }

// SmallCap returns the base (profile scale 1) per-round word capacity of a
// small machine. Under a capacity-skewed profile individual machines differ;
// see SmallCapOf and MinSmallCap.
func (c *Cluster) SmallCap() int { return c.smallCap }

// SmallCapOf returns small machine i's per-round word capacity under the
// cluster's profile.
func (c *Cluster) SmallCapOf(i int) int { return c.smallCaps[i] }

// MinSmallCap returns the smallest small-machine capacity — the safe bound
// for broadcast payloads and tree branching that must fit every machine.
// Equals SmallCap on uniform profiles.
func (c *Cluster) MinSmallCap() int { return c.minSmallCap }

// CapShare returns small machine i's capacity scale normalized so the
// largest machine has share 1. Under the default Cap placement policy it is
// also the machine's placement weight (Frisk's balancing rule); on uniform
// profiles every share is exactly 1.
func (c *Cluster) CapShare(i int) float64 { return c.capShare[i] }

// PlaceShare returns small machine i's placement weight under the cluster's
// placement policy (DESIGN.md §8). The placement primitives
// (prims.DistributeEdges, prims.Sort splitter weighting and, through Sort,
// prims.AggregateByKey) allot load proportional to it. Under the default
// Cap policy it equals CapShare(i) exactly.
func (c *Cluster) PlaceShare(i int) float64 { return c.placeShare[i] }

// Placement returns the cluster's placement policy (never nil; the default
// is sched.Cap).
func (c *Cluster) Placement() sched.Policy { return c.placement }

// SpeculationR returns the effective speculate:R dial this cluster runs:
// the policy's requested R clamped to K/2 (every speculated shard needs a
// distinct partner machine). 0 when the policy does not speculate.
func (c *Cluster) SpeculationR() int { return c.specR }

// PlacementEstimator returns the online estimator driving an adaptive
// placement policy (sched.OnlinePolicy): the per-machine EWMA cost
// estimates the round barrier recomputes PlaceShare from. Nil under the
// static policies. Callers may read it (Estimate, Rounds) but must not
// mutate it mid-run.
func (c *Cluster) PlacementEstimator() *sched.Estimator { return c.est }

// Profile returns the cluster's machine profile (nil = uniform).
func (c *Cluster) Profile() *Profile { return c.cfg.Profile }

// LargeCap returns the per-round/word capacity of the large machine.
func (c *Cluster) LargeCap() int { return c.largeCap }

// HasLarge reports whether the cluster includes the large machine.
func (c *Cluster) HasLarge() bool { return !c.cfg.NoLarge }

// F returns the large machine's extra memory exponent (0 = near-linear).
func (c *Cluster) F() float64 { return c.cfg.F }

// Stats returns the accumulated run metrics.
func (c *Cluster) Stats() Stats { return c.stats }

// Metrics returns the cluster's metrics registry (Config.Metrics), nil when
// the run is unmetered.
func (c *Cluster) Metrics() *metrics.Registry { return c.cfg.Metrics }

// Rounds returns the number of communication rounds executed so far.
func (c *Cluster) Rounds() int { return c.stats.Rounds }

// BusyTime returns the accumulated simulated busy time of machine id
// (Large or a small-machine index): Σ over rounds of w_id·WordCost(id).
// The makespan is Σ_r latency + max_i of the per-round terms, so
// BusyTime(i) ≤ Stats().Makespan for every machine.
func (c *Cluster) BusyTime(id int) float64 {
	if id == Large {
		return c.busy[0]
	}
	return c.busy[1+id]
}

// WordCost returns the time per word of machine id (Large or a small-machine
// index), its Profile Cost (2 by default): what a round charges the machine
// for each word it moves, outside any slowdown window.
func (c *Cluster) WordCost(id int) float64 { return c.cost[1+id] }

// BusyImbalance returns max/mean of the small machines' busy times (1 =
// perfectly balanced). It is defined as 0 — never NaN — in the degenerate
// cases: a cluster where no small-machine traffic has flowed yet (all busy
// times zero, including freshly built and NoLarge clusters before their
// first Exchange), and the k == 0 cluster, which New can never build
// (DeriveK floors K at 2) but a zero-value Cluster would present. NoLarge
// only removes the large machine; the imbalance is over small machines and
// behaves identically with or without it.
func (c *Cluster) BusyImbalance() float64 {
	if c.k == 0 {
		return 0
	}
	var max, sum float64
	for i := 0; i < c.k; i++ {
		b := c.busy[1+i]
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return max * float64(c.k) / sum
}

// Rand returns small machine i's private PRNG.
func (c *Cluster) Rand(i int) *rand.Rand { return &c.rngs[1+i] }

// LargeRand returns the large machine's private PRNG.
func (c *Cluster) LargeRand() *rand.Rand { return &c.rngs[0] }

// capOf returns the per-round word capacity of machine id under the
// cluster's profile.
func (c *Cluster) capOf(id int) int {
	if id == Large {
		return c.largeCap
	}
	return c.smallCaps[id]
}

func ipow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
