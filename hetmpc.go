// Package hetmpc is an executable reproduction of "Massively Parallel
// Computation in a Heterogeneous Regime" (Fischer, Horowitz, Oshman — PODC
// 2022): a simulator for the Heterogeneous MPC model — one near-linear (or
// superlinear) machine plus many sublinear machines, synchronous rounds,
// strict per-round communication caps — together with the paper's
// algorithms:
//
//   - MST in O(log log(m/n)) Borůvka phases (§3, Theorem 3.1);
//   - O(k)-spanners of size O(n^{1+1/k}) in O(1) rounds (§4, Theorem 4.1),
//     and the O(log n)-approximate APSP oracle of Corollary 4.2;
//   - maximal matching whose round count depends on the average degree
//     (§5, Theorem 5.1) and the filtering variant for superlinear memory
//     (Theorem 5.5);
//   - the ported near-linear algorithms of Appendix C: connectivity and
//     (1+ε)-MST weight via graph sketches, exact and (1±ε) minimum cut,
//     MIS in O(log log Δ) and (Δ+1)-coloring in O(1) rounds;
//   - the "2-vs-1 cycle" problem that motivates the model;
//   - sublinear-regime baselines (no large machine) for every comparison
//     row of the paper's Table 1.
//
// Beyond the paper's uniform small machines, the simulator supports
// heterogeneous machine profiles (Profile; generators UniformProfile,
// ZipfProfile, BimodalProfile, StragglerProfile, and the CLI-spec parser
// ParseProfile): per-machine capacities and per-word costs, with the
// simulated makespan reported in ClusterStats.Makespan and per-machine busy
// time on the Cluster. A nil profile reproduces the paper's model exactly.
//
// How work is split across those machines is a pluggable placement policy
// (Config.Placement; parser ParsePlacement, DESIGN.md §8): the default
// capacity-proportional CapPlacement, the min-makespan
// ThroughputPlacement (share ∝ min(capacity, 1/word cost)),
// SpeculatePlacement, which adds first-copy-wins redundant execution of
// the slowest per-round shards on idle fast machines — speculative copies
// are charged honestly in ClusterStats.SpeculationWords — and
// AdaptivePlacement, which re-estimates every machine's per-word cost
// online (EWMA over the rounds it actually runs) and recomputes the
// throughput shares at round boundaries, so placement stays right even
// when the declared profile is wrong (DESIGN.md §10). Policies move
// data, never correctness: every algorithm validates its output under
// every policy.
//
// The simulator also measures what fault tolerance costs a
// Heterogeneous-MPC algorithm: Config.Faults takes a deterministic
// FaultPlan (crash schedules, transient slowdown windows, a checkpoint
// cadence; parser ParseFaultPlan), and the recovery engine replicates the
// words each machine holds to a capacity-aware buddy and restores them on
// crashes — charging every replication and recovery action in words,
// rounds and makespan (ClusterStats.Crashes, RecoveryRounds,
// ReplicationWords, Checkpoints). Faults never change an algorithm's round
// structure or output, only its measured cost; a nil (or zero) plan is
// bit-identical to the reliable cluster. See DESIGN.md §7.
//
// Quickstart:
//
//	g := hetmpc.GNMWeighted(1024, 8192, 42)
//	c, err := hetmpc.NewCluster(hetmpc.Config{N: g.N, M: g.M(), Seed: 1})
//	if err != nil { ... }
//	res, err := hetmpc.MST(c, g)
//	fmt.Println(res.Weight, res.Stats.Rounds)
//
// and under a heterogeneous profile:
//
//	cfg := hetmpc.Config{N: g.N, M: g.M(), Seed: 1}
//	cfg.Profile = hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
//	c, err = hetmpc.NewCluster(cfg)
//	// ... run as before; c.Stats().Makespan is the simulated wall-clock.
//
// Every algorithm runs entirely inside the simulated model (all cross-machine
// data moves through capacity-checked Exchange rounds) and returns the
// measured round count and traffic alongside its output.
package hetmpc

import (
	"io"

	"hetmpc/internal/core"
	"hetmpc/internal/fault"
	"hetmpc/internal/graph"
	"hetmpc/internal/metrics"
	"hetmpc/internal/mpc"
	"hetmpc/internal/sched"
	"hetmpc/internal/sublinear"
	"hetmpc/internal/trace"
	"hetmpc/internal/wire"
)

// ErrNeedsLarge is the unified "requires the large machine" failure: every
// large-requiring algorithm (MST, Spanner, Connectivity, …) wraps it with
// its own name when run on a NoLarge cluster, so callers detect the
// condition with errors.Is(err, hetmpc.ErrNeedsLarge) and fall back to a
// Baseline* algorithm.
var ErrNeedsLarge = mpc.ErrNeedsLarge

// ErrCapacity is wrapped by every refusal of a round or held state that
// exceeds a machine's capacity; the error names the machine. Detect it with
// errors.Is(err, hetmpc.ErrCapacity).
var ErrCapacity = mpc.ErrCapacity

// ErrRounds is wrapped when a run exceeds the cluster's round budget
// (Config.MaxRounds).
var ErrRounds = mpc.ErrRounds

// ErrSketchFailure is wrapped when sketch connectivity (Connectivity,
// ApproxMSTWeight) runs out of Borůvka phases with a component whose
// ℓ0-samplers never sampled its outgoing edge: a randomized failure, never
// a wrong answer.
var ErrSketchFailure = core.ErrSketchFailure

// ErrRetriesExhausted is wrapped when a randomized step (Coloring's list
// path, MST's KKT sampling) gives up after its last try.
var ErrRetriesExhausted = core.ErrRetriesExhausted

// Re-exported model types.
type (
	// Config parameterizes a cluster; see mpc.Config for field docs.
	Config = mpc.Config
	// Cluster is a running heterogeneous MPC system.
	Cluster = mpc.Cluster
	// ClusterStats are the accumulated communication metrics of a cluster
	// (rounds, messages, words, and the simulated Makespan).
	ClusterStats = mpc.Stats
	// Profile describes per-machine heterogeneity: a capacity scale and a
	// time per word each; nil is the paper's uniform cluster.
	Profile = mpc.Profile
	// PlacementPolicy decides how the placement primitives split work
	// across heterogeneous machines (Config.Placement); nil is the
	// capacity-proportional default. See CapPlacement,
	// ThroughputPlacement, SpeculatePlacement and DESIGN.md §8.
	PlacementPolicy = sched.Policy
	// CapPlacement is the capacity-proportional placement policy (the
	// default; bit-identical to a nil Config.Placement).
	CapPlacement = sched.Cap
	// ThroughputPlacement is the LPT-style min-makespan placement policy:
	// share ∝ min(capacity share, 1/word cost).
	ThroughputPlacement = sched.Throughput
	// SpeculatePlacement is ThroughputPlacement plus redundant execution
	// of the R slowest per-round shards on idle fast machines,
	// first-copy-wins, charged in ClusterStats.SpeculationWords.
	SpeculatePlacement = sched.Speculate
	// AdaptivePlacement is ThroughputPlacement recomputed online: an EWMA
	// estimator (gain Alpha) re-estimates every machine's effective
	// per-word cost from the rounds it actually runs, and the recomputed
	// shares switch in at round boundaries — so placement converges to the
	// truth even when the declared Profile is wrong. Alpha = 0 (and any
	// truthful profile) is bit-identical to ThroughputPlacement; the bare
	// "adaptive" spec uses the default gain 0.5. See DESIGN.md §10.
	AdaptivePlacement = sched.Adaptive
	// FaultPlan is a deterministic fault-injection schedule plus the
	// checkpoint cadence of the recovery protocol (Config.Faults); nil is
	// the reliable cluster. See fault.Plan.
	FaultPlan = fault.Plan
	// FaultCrash schedules one machine failure inside a FaultPlan.
	FaultCrash = fault.Crash
	// FaultSlowdown is a transient straggler window inside a FaultPlan.
	FaultSlowdown = fault.Slowdown
	// Trace is the per-round trace collector (Config.Trace): with one
	// attached, the simulator records every makespan contribution — tagged
	// with the phase-span path (Cluster.Span) — without perturbing the run.
	// See NewTrace, SummarizeTrace and DESIGN.md §9.
	Trace = trace.Collector
	// TraceRound is one record of the trace timeline: an exchange round, a
	// checkpoint barrier or a crash recovery, with its exact makespan
	// contribution, words, argmax machine and per-machine detail.
	TraceRound = trace.Round
	// TraceSummary is the aggregated critical-path view of a timeline
	// (SummarizeTrace): totals plus per-phase makespan shares and
	// bottleneck machines.
	TraceSummary = trace.Summary
	// TracePhase is one phase row of a TraceSummary.
	TracePhase = trace.PhaseStat
)

// Trace machine-id and record-kind constants, re-exported so TraceRound
// consumers can interpret Argmax/Victim and Kind without importing the
// internal package: TraceLarge is the large machine, TraceNone marks "no
// machine" (a silent round), and the kinds tag exchange rounds, checkpoint
// barriers and crash recoveries.
const (
	TraceLarge          = trace.Large
	TraceNone           = trace.None
	TraceKindExchange   = trace.KindExchange
	TraceKindCheckpoint = trace.KindCheckpoint
	TraceKindRecovery   = trace.KindRecovery
)

type (
	// Span is a phase-scoped measurement window (Cluster.Span): End returns
	// the ClusterStats delta of the scope, and traced rounds inside it are
	// tagged with the span path. Spans nest without double-counting.
	Span = mpc.Span
	// Graph is an edge-list graph over vertices 0..N-1.
	Graph = graph.Graph
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
	// Half is one direction of an edge in an adjacency list.
	Half = graph.Half
)

// Re-exported result types.
type (
	MSTResult          = core.MSTResult
	SpannerResult      = core.SpannerResult
	MatchingResult     = core.MatchingResult
	ConnectivityResult = core.ConnectivityResult
	MSTApproxResult    = core.MSTApproxResult
	MinCutResult       = core.MinCutResult
	MISResult          = core.MISResult
	ColoringResult     = core.ColoringResult
	TwoVsOneCycleRes   = core.TwoVsOneCycleResult
	APSPOracle         = core.APSPOracle

	BaselineCCResult       = sublinear.CCResult
	BaselineMSTResult      = sublinear.MSTResult
	BaselineMISResult      = sublinear.MISResult
	BaselineColoringResult = sublinear.ColoringResult
	BaselineSpannerResult  = sublinear.SpannerResult
	PeelResult             = sublinear.PeelResult

	// MSTOptions exposes the §3 ablation knobs (experiment E16).
	MSTOptions = core.MSTOptions
)

// NewCluster validates cfg and builds a heterogeneous cluster: one large
// machine with Õ(n^{1+F}) words of memory (disable with NoLarge for the
// pure-sublinear baseline regime) and K = ⌈m/n^γ⌉ small machines with
// Õ(n^γ) words each.
func NewCluster(cfg Config) (*Cluster, error) { return mpc.New(cfg) }

// --- Machine profiles (heterogeneous capacities and costs) ---

// UniformProfile is the explicit form of the default profile: k machines,
// every capacity scale 1 and every cost 2; bit-identical to a nil profile.
func UniformProfile(k int) *Profile { return mpc.UniformProfile(k) }

// ZipfProfile skews capacities: machine i's cap scale is (i+1)^-s, clamped
// below at floor (0 = default 0.05). Costs stay 2.
func ZipfProfile(k int, s, floor float64) *Profile { return mpc.ZipfProfile(k, s, floor) }

// BimodalProfile slows the last ⌈slowFrac·k⌉ machines' compute and link by
// factor; capacities stay uniform, so only the makespan changes.
func BimodalProfile(k int, slowFrac, factor float64) *Profile {
	return mpc.BimodalProfile(k, slowFrac, factor)
}

// StragglerProfile slows the last `stragglers` machines' compute by
// slowdown; capacities and links stay uniform.
func StragglerProfile(k, stragglers int, slowdown float64) *Profile {
	return mpc.StragglerProfile(k, stragglers, slowdown)
}

// ParseProfile builds a profile from a CLI spec ("uniform", "zipf:S[:FLOOR]",
// "bimodal:SLOWFRAC:FACTOR", "straggler:N:SLOWDOWN", "custom:I=SPEED,...")
// for a k-machine cluster (k = Config.DeriveK()).
func ParseProfile(spec string, k int) (*Profile, error) { return mpc.ParseProfile(spec, k) }

// --- Placement policies (DESIGN.md §8) ---

// ParsePlacement builds a placement policy from a CLI spec ("cap",
// "throughput", "speculate:R", "adaptive[:ALPHA]"). The empty spec and
// "cap" return nil — the capacity-proportional default.
func ParsePlacement(spec string) (PlacementPolicy, error) { return sched.Parse(spec) }

// --- Exchange transports and the wire codec (DESIGN.md §11) ---

// Transport selects how the Exchange deliver phase moves bytes
// (Config.Transport): nil is the in-process shared-memory path,
// bit-identical to the pre-wire engine; NewPipeTransport and
// NewTCPTransport push every round through real file descriptors, with the
// measured bytes reported in ClusterStats.WireBytes beside the modeled
// words the cost model keeps charging unchanged. A transport belongs to
// exactly one cluster: NewCluster opens its links and Cluster.Close
// releases them.
type Transport = wire.Transport

// ErrTransport is wrapped by every transport-layer failure: a transport
// that cannot open (returned by NewCluster) and a link dying mid-round
// (returned by the Exchange that meets it, naming the link). Detect it
// with errors.Is.
var ErrTransport = wire.ErrTransport

// NewPipeTransport returns the socketpair transport: one AF_UNIX stream
// pair per machine, the single-host multi-process wire shape.
func NewPipeTransport() Transport { return wire.NewPipe() }

// NewTCPTransport returns the loopback TCP transport: one TCP connection
// per machine through an ephemeral 127.0.0.1 listener.
func NewTCPTransport() Transport { return wire.NewTCP() }

// ParseTransport resolves a -transport CLI spec: "" and "inproc" select the
// shared-memory path (nil Transport), "pipe" and "tcp" the real-wire
// transports.
func ParseTransport(spec string) (Transport, error) { return wire.Parse(spec) }

// --- Per-round tracing and phase spans (DESIGN.md §9) ---

// NewTrace returns an empty trace collector for Config.Trace. A traced
// run's ClusterStats are bit-identical to the same run untraced; the
// collector only observes.
func NewTrace() *Trace { return trace.New() }

// SummarizeTrace aggregates a recorded timeline (Trace.Rounds) into the
// per-phase critical-path summary: makespan share and bottleneck machine
// per phase. The phase rows partition the totals exactly.
func SummarizeTrace(rounds []TraceRound) *TraceSummary { return trace.Summarize(rounds) }

// TraceMachineName renders a trace machine id ("large", "small-3", "-").
func TraceMachineName(id int) string { return trace.MachineName(id) }

// WriteTraceJSONL streams a recorded timeline as schema-stamped JSONL (one
// header line, one record per line) — the long-run export format; read it
// back with ReadTraceJSONL. See DESIGN.md §12.
func WriteTraceJSONL(w io.Writer, rounds []TraceRound) error { return trace.WriteJSONL(w, rounds) }

// ReadTraceJSONL loads a timeline written by WriteTraceJSONL, refusing
// streams whose schema version or format tag does not match.
func ReadTraceJSONL(r io.Reader) ([]TraceRound, error) { return trace.ReadJSONL(r) }

// WriteTracePerfetto renders a recorded timeline as Chrome trace-event JSON:
// one track per machine (busy spans), a rounds track (per-round makespan
// contributions), and instant markers for checkpoint barriers and crash
// recoveries. The output loads directly in Perfetto (ui.perfetto.dev) and
// chrome://tracing.
func WriteTracePerfetto(w io.Writer, rounds []TraceRound) error {
	return trace.WritePerfetto(w, rounds)
}

// --- Engine metrics (DESIGN.md §12) ---

type (
	// Metrics is the metrics registry (Config.Metrics): the engine folds
	// every round record into it — run-wide, per-machine and per-phase word
	// and round counters, the round-time histogram, the fault counters —
	// so its Snapshot is a pure function of the run's trace timeline. Like
	// the trace collector it only observes — a metered run's ClusterStats
	// are bit-identical to the same run unmetered, and a nil registry is
	// the zero-overhead path.
	Metrics = metrics.Registry
	// MetricSample is one instrument of a Metrics.Snapshot.
	MetricSample = metrics.Sample
)

// NewMetrics returns an empty metrics registry for Config.Metrics. It sums
// every record it is fed, so share one registry across clusters run one
// after another to aggregate them, or use one per cluster to keep them
// apart.
func NewMetrics() *Metrics { return metrics.New() }

// --- Fault injection and recovery (DESIGN.md §7) ---

// ParseFaultPlan builds a fault plan from a CLI spec of +-joined clauses
// ("ckpt:I", "crash:R:M[:K]", "rate:P[:SEED]", "slow:M:FROM:TO:FACTOR",
// "restart:K") for a k-machine cluster. The empty spec and "none" return
// nil (the reliable cluster); a repeated ckpt, rate or restart clause, or a
// second crash of one machine at one round, is an error.
func ParseFaultPlan(spec string, k int) (*FaultPlan, error) { return fault.ParsePlan(spec, k) }

// NewGraph builds a graph from an edge list (canonicalized, deduplicated).
func NewGraph(n int, edges []Edge, weighted bool) *Graph { return graph.New(n, edges, weighted) }

// NewEdge returns the canonical form of edge {u, v} with weight w.
func NewEdge(u, v int, w int64) Edge { return graph.NewEdge(u, v, w) }

// --- Workload generators ---

// GNM returns a uniformly random simple unweighted graph.
func GNM(n, m int, seed uint64) *Graph { return graph.GNM(n, m, seed) }

// GNMWeighted is GNM with a random permutation of 1..m as (unique) weights.
func GNMWeighted(n, m int, seed uint64) *Graph { return graph.GNMWeighted(n, m, seed) }

// ConnectedGNM returns a connected random graph (random recursive tree plus
// random extra edges).
func ConnectedGNM(n, m int, seed uint64, weighted bool) *Graph {
	return graph.ConnectedGNM(n, m, seed, weighted)
}

// Cycles returns a disjoint union of `parts` cycles covering n vertices
// (parts = 1 or 2 gives the paper's "2-vs-1 cycle" instances).
func Cycles(n, parts int, seed uint64) *Graph { return graph.Cycles(n, parts, seed) }

// PlantedHubs returns a sparse core of average degree ~d plus `hubs`
// vertices of degree ~hubDeg (the workload separating average from maximum
// degree in the matching experiment).
func PlantedHubs(n, d, hubs, hubDeg int, seed uint64) *Graph {
	return graph.PlantedHubs(n, d, hubs, hubDeg, seed)
}

// PlantedCut returns two dense halves joined by exactly `cut` cross edges.
func PlantedCut(n, mPerSide, cut int, seed uint64, weighted bool) *Graph {
	return graph.PlantedCut(n, mPerSide, cut, seed, weighted)
}

// Star, Path, Grid and Complete build the standard fixed topologies.
func Star(n int) *Graph { return graph.Star(n) }

// Path returns the path graph on n vertices.
func Path(n int) *Graph { return graph.Path(n) }

// Grid returns the r×c grid graph.
func Grid(r, c int) *Graph { return graph.Grid(r, c) }

// Complete returns K_n.
func Complete(n int, weighted bool, seed uint64) *Graph { return graph.Complete(n, weighted, seed) }

// --- Heterogeneous MPC algorithms (the paper's contributions) ---

// MST computes a minimum spanning forest in O(log log(m/n)) Borůvka phases
// plus an O(1)-round KKT sampling step (§3, Theorem 3.1).
func MST(c *Cluster, g *Graph) (*MSTResult, error) { return core.MST(c, g) }

// Spanner computes a (6k-1)-spanner of expected size O(n^{1+1/k}) in O(1)
// rounds for unweighted graphs (§4, Theorem 4.1).
func Spanner(c *Cluster, g *Graph, k int) (*SpannerResult, error) { return core.Spanner(c, g, k) }

// SpannerWeighted is the weighted reduction: a (12k-1)-spanner of size
// O(n^{1+1/k} log n).
func SpannerWeighted(c *Cluster, g *Graph, k int) (*SpannerResult, error) {
	return core.SpannerWeighted(c, g, k)
}

// BuildAPSPOracle builds the Corollary 4.2 oracle: an O(log n)-stretch
// spanner of size Õ(n) kept on the large machine, answering all-pairs
// distance queries locally.
func BuildAPSPOracle(c *Cluster, g *Graph) (*APSPOracle, error) { return core.BuildAPSPOracle(c, g) }

// MaximalMatching computes a maximal matching by the three-phase algorithm
// of §5 (Theorem 5.1); its iteration count depends on the average degree d,
// not on Δ.
func MaximalMatching(c *Cluster, g *Graph) (*MatchingResult, error) {
	return core.MaximalMatching(c, g)
}

// MatchingFiltering is the Theorem 5.5 variant for superlinear large-machine
// memory (configure the cluster with F > 0): O(1/f) filtering iterations.
func MatchingFiltering(c *Cluster, g *Graph) (*MatchingResult, error) {
	return core.MatchingFiltering(c, g)
}

// Connectivity identifies connected components in O(1) rounds via AGM graph
// sketches (Appendix C.1, Theorem C.1).
func Connectivity(c *Cluster, g *Graph) (*ConnectivityResult, error) {
	return core.Connectivity(c, g)
}

// ApproxMSTWeight estimates the MST weight within (1+ε) via component
// counting (Appendix C.1.1, Theorem C.2). The input should be connected.
func ApproxMSTWeight(c *Cluster, g *Graph, eps float64) (*MSTApproxResult, error) {
	return core.ApproxMSTWeight(c, g, eps)
}

// MinCutUnweighted computes the exact minimum cut w.h.p. via 2-out
// contraction (Appendix C.2, Theorem C.3).
func MinCutUnweighted(c *Cluster, g *Graph) (*MinCutResult, error) {
	return core.MinCutUnweighted(c, g)
}

// ApproxMinCut estimates a weighted minimum cut within (1±ε) via Karger-style
// skeletons (Appendix C.3, Theorem C.4).
func ApproxMinCut(c *Cluster, g *Graph, eps float64) (*MinCutResult, error) {
	return core.ApproxMinCut(c, g, eps)
}

// MIS computes a maximal independent set in O(log log Δ) iterations
// (Appendix C.4, Theorem C.6).
func MIS(c *Cluster, g *Graph) (*MISResult, error) { return core.MIS(c, g) }

// Coloring computes a (Δ+1)-coloring in O(1) rounds via color-list sampling
// (Appendix C.5, Theorem C.7).
func Coloring(c *Cluster, g *Graph) (*ColoringResult, error) { return core.Coloring(c, g) }

// TwoVsOneCycle solves the model's motivating problem in O(1) rounds: the
// input (a union of cycles, m = n) fits the large machine whole.
func TwoVsOneCycle(c *Cluster, g *Graph) (*TwoVsOneCycleRes, error) {
	return core.TwoVsOneCycle(c, g)
}

// --- Sublinear-regime baselines (clusters built with Config.NoLarge) ---

// BaselineConnectivity is random-mate label contraction: Θ(log n) phases.
func BaselineConnectivity(c *Cluster, g *Graph) (*BaselineCCResult, error) {
	return sublinear.Connectivity(c, g)
}

// BaselineMST is Borůvka with random-mate contraction: Θ(log n) phases.
func BaselineMST(c *Cluster, g *Graph) (*BaselineMSTResult, error) {
	return sublinear.MST(c, g)
}

// BaselineMIS is Luby's algorithm: Θ(log n) rounds.
func BaselineMIS(c *Cluster, g *Graph) (*BaselineMISResult, error) {
	return sublinear.MIS(c, g)
}

// BaselineColoring is iterated random color trials: Θ(log n) rounds.
func BaselineColoring(c *Cluster, g *Graph) (*BaselineColoringResult, error) {
	return sublinear.Coloring(c, g)
}

// BaselineMatching is mirror-matching peeling to full maximality: the
// iteration count tracks log Δ (DESIGN.md substitution 1).
func BaselineMatching(c *Cluster, g *Graph) ([]Edge, *PeelResult, error) {
	return sublinear.MaximalMatching(c, g)
}

// BaselineSpanner is plain distributed Baswana-Sen: Θ(k) rounds.
func BaselineSpanner(c *Cluster, g *Graph, k int) (*BaselineSpannerResult, error) {
	return sublinear.Spanner(c, g, k)
}

// MSTWithOptions runs the §3 MST with ablation knobs (experiment E16).
func MSTWithOptions(c *Cluster, g *Graph, opts MSTOptions) (*MSTResult, error) {
	return core.MSTWithOptions(c, g, opts)
}

// --- Reference (exact, out-of-model) algorithms for validation ---

// KruskalMSF returns the exact minimum spanning forest and its weight.
func KruskalMSF(g *Graph) ([]Edge, int64) { return graph.KruskalMSF(g) }

// Components returns exact per-vertex component labels and the count.
func Components(g *Graph) ([]int, int) { return graph.Components(g) }

// StoerWagner returns the exact global minimum cut weight.
func StoerWagner(g *Graph) int64 { return graph.StoerWagner(g) }

// BFSDist returns exact unweighted distances from src (math.MaxInt marks
// unreachable vertices).
func BFSDist(adj [][]Half, src int) []int { return graph.BFSDist(adj, src) }

// DijkstraDist returns exact weighted distances from src.
func DijkstraDist(adj [][]Half, src int) []int64 { return graph.DijkstraDist(adj, src) }

// CheckMST, CheckMatching, CheckMIS, CheckColoring and CheckSpanner validate
// outputs against the input graph; they return nil on success.
func CheckMST(g *Graph, tree []Edge) error { return graph.CheckMST(g, tree) }

// CheckMatching validates a (maximal) matching.
func CheckMatching(g *Graph, m []Edge, maximal bool) error { return graph.CheckMatching(g, m, maximal) }

// CheckMIS validates a maximal independent set.
func CheckMIS(g *Graph, set []int) error { return graph.CheckMIS(g, set) }

// CheckColoring validates a proper coloring with palette [0, maxColor].
func CheckColoring(g *Graph, colors []int, maxColor int) error {
	return graph.CheckColoring(g, colors, maxColor)
}

// CheckSpanner validates subgraph-ness and stretch on sampled sources.
func CheckSpanner(g, h *Graph, stretch, samples int, seed uint64) error {
	return graph.CheckSpanner(g, h, stretch, samples, seed)
}
