package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"hetmpc"
)

// protocol holds what the package test turns down; the benchmark itself
// always runs reference.
type protocol struct {
	div         int // divides every input size
	minPasses   int // timed passes per GOMAXPROCS setting, however short -seconds is
	tracePasses int // passes per phase of the traced run
}

var reference = protocol{div: 1, minPasses: 3, tracePasses: 3}

// maxPasses caps the timed passes per setting when -seconds is long.
const maxPasses = 25

// setupReps is how many times a run generates its inputs and reference
// solutions; setup_s takes the median.
const setupReps = 3

// sample is one timed execution of a cell.
type sample struct {
	secs    float64 // wall-clock seconds
	running float64 // share of them the hypervisor let the vCPUs run (runShare)
	probe   float64 // the speed probe's seconds, mean of the readings either side of the cell
	mallocs uint64
	bytes   uint64
	stats   hetmpc.ClusterStats
}

// scaled is the cell's host seconds with stolen time taken out, at the
// reference speed (probe.go).
func (s sample) scaled() float64 { return s.secs * s.running * probeRefSeconds / s.probe }

// runner executes cells, validates every output and keeps the failure count.
type runner struct {
	seed      uint64
	proto     protocol
	probe     *probe
	ledger    *ledger                        // non-nil while traced passes run
	first     map[string]hetmpc.ClusterStats // the model stats each cell produced first
	attempted int
	failed    int
}

func newRunner(seed uint64, proto protocol) (*runner, error) {
	p, err := newProbe()
	if err != nil {
		return nil, err
	}
	return &runner{seed: seed, proto: proto, probe: p, first: map[string]hetmpc.ClusterStats{}}, nil
}

// exec runs one cell: collect garbage, time NewCluster + the façade call +
// Close, then — outside the timed region — validate the output and require
// the model stats to equal those of the cell's first execution, whatever
// the pass or GOMAXPROCS setting.
func (r *runner) exec(c *cell) sample {
	r.attempted++
	s, err := r.time(c)
	if err == nil {
		if first, seen := r.first[c.name]; !seen {
			r.first[c.name] = s.stats
		} else if first != s.stats {
			err = fmt.Errorf("model stats drifted:\n first %+v\n  now  %+v", first, s.stats)
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", c.name, err)
	}
	return s
}

func (r *runner) time(c *cell) (sample, error) {
	var s sample
	cfg, err := c.cfg()
	if err != nil {
		return s, err
	}
	if r.ledger != nil {
		r.ledger.attach(&cfg)
	}
	// Heap state carried over from the previous cell is the largest noise
	// source inside a run; collect it outside the timed region.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stolenBefore, err := stolen()
	if err != nil {
		return s, err
	}
	if r.ledger != nil {
		r.ledger.beginCell(c.name)
	}
	start := time.Now()
	cl, err := hetmpc.NewCluster(cfg)
	var check func() error
	if err == nil {
		if r.ledger != nil {
			r.ledger.clusterReady()
		}
		check, err = c.run(cl)
		s.stats = cl.Stats()
		if cerr := cl.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}
	s.secs = time.Since(start).Seconds()
	if r.ledger != nil {
		r.ledger.endCell()
	}
	stolenAfter, serr := stolen()
	if serr != nil {
		return s, serr
	}
	s.running = runShare(stolenBefore, stolenAfter, s.secs)
	runtime.ReadMemStats(&after)
	s.mallocs, s.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if err != nil {
		return s, err
	}
	untimed("check", func() { err = check() })
	return s, err
}

// untimed runs f — validation, a speed-probe reading — under the profile
// label that keeps its samples out of the traced run's CPU shares.
func untimed(what string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(untimedLabel, what), func(context.Context) { f() })
}

// speed reads the speed probe.
func (r *runner) speed() (secs float64) {
	untimed("probe", func() { secs = r.probe.seconds() })
	return secs
}

// pass runs every cell once, in order, at GOMAXPROCS=procs, reading the
// speed probe before the first cell and after each one.
func (r *runner) pass(kind string, procs int, cells []cell) []sample {
	runtime.GOMAXPROCS(procs)
	if r.ledger != nil {
		r.ledger.beginPass(kind)
		defer r.ledger.endPass()
	}
	out := make([]sample, len(cells))
	before := r.speed()
	for i := range cells {
		out[i] = r.exec(&cells[i])
		after := r.speed()
		out[i].probe = (before + after) / 2
		before = after
	}
	var raw, unstolen, scaled, probed float64
	for _, s := range out {
		raw += s.secs
		unstolen += s.secs * s.running
		scaled += s.scaled()
		probed += s.probe
	}
	fmt.Printf("# pass %-9s gomaxprocs=%d wall=%.3fs stolen=%.3fs probe=%.3fms scaled=%.3fs\n",
		kind, procs, raw, raw-unstolen, probed/float64(len(out))*1e3, scaled)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cellMedians returns each cell's median scaled seconds across passes.
func cellMedians(passes [][]sample) []float64 {
	meds := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for c := range meds {
		for p := range passes {
			col[p] = passes[p][c].scaled()
		}
		meds[c] = median(col)
	}
	return meds
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// passes runs n passes of cells at one setting.
func (r *runner) passes(kind string, procs, n int, cells []cell) [][]sample {
	out := make([][]sample, n)
	for i := range out {
		out[i] = r.pass(kind, procs, cells)
	}
	return out
}

// setUp generates the workload's inputs and reference solutions setupReps
// times and runs the untimed warm-up pass once, at GOMAXPROCS=nproc.
// setup_s is the median generation plus the warm-up, in scaled seconds.
func (r *runner) setUp(name string, procs int) (*workload, float64, error) {
	var (
		wl   *workload
		gens []float64
	)
	for i := 0; i < setupReps; i++ {
		before := r.speed()
		start := time.Now()
		var err error
		if wl, err = buildWorkload(name, r.seed, r.proto.div); err != nil {
			return nil, 0, err
		}
		secs := time.Since(start).Seconds()
		gens = append(gens, secs*probeRefSeconds/((before+r.speed())/2))
	}
	start := time.Now()
	warm := r.pass("warm-up", procs, wl.cells)
	gaps := time.Since(start).Seconds() // validation and probing count as set-up
	var scaled float64
	for _, s := range warm {
		gaps -= s.secs
		scaled += s.scaled()
	}
	return wl, median(gens) + scaled + gaps, nil
}

// endToEndRun measures the end-to-end metrics of one workload: one set-up,
// then timed passes that alternate between GOMAXPROCS=nproc and 1 — so that
// both settings sample the whole run, not one half each — until seconds of
// them have run.
func endToEndRun(name string, seed uint64, seconds float64, proto protocol) (values, *runner, error) {
	r, err := newRunner(seed, proto)
	if err != nil {
		return nil, nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nproc := runtime.NumCPU()
	wl, setup, err := r.setUp(name, nproc)
	if err != nil {
		return nil, nil, err
	}
	var par, p1 [][]sample
	for start := time.Now(); len(p1) < proto.minPasses || (time.Since(start).Seconds() < seconds && len(p1) < maxPasses); {
		par = append(par, r.pass("timed", nproc, wl.cells))
		p1 = append(p1, r.pass("timed", 1, wl.cells))
	}
	fmt.Printf("# workload=%s timed passes per setting=%d, after one untimed warm-up pass\n", name, len(p1))

	var mallocs, bytes, rounds float64
	for _, pass := range p1 {
		for _, s := range pass {
			mallocs += float64(s.mallocs)
			bytes += float64(s.bytes)
			rounds += float64(s.stats.Rounds)
		}
	}
	v := values{
		"wall_s":             sum(cellMedians(par)),
		"wall_p1_s":          sum(cellMedians(p1)),
		"allocs_per_round":   mallocs / rounds,
		"alloc_kb_per_round": bytes / 1024 / rounds,
		"setup_s":            setup,
		failShare:            float64(r.failed) / float64(r.attempted),
	}
	for _, s := range p1[0] {
		v["model_rounds"] += float64(s.stats.Rounds)
		v["model_words"] += float64(s.stats.TotalWords)
		v["model_makespan"] += s.stats.Makespan
	}
	if v["peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return nil, nil, err
	}
	return v, r, nil
}

// dispatchCalls is how many empty ForSmall calls the dispatch probe times.
const dispatchCalls = 20000

// forSmallDispatchUs times an empty-body ForSmall on the table1 cluster.
func (r *runner) forSmallDispatchUs(procs int) (float64, error) {
	runtime.GOMAXPROCS(procs)
	c, err := hetmpc.NewCluster(hetmpc.Config{N: 512, M: 4096, Seed: r.seed})
	if err != nil {
		return 0, fmt.Errorf("dispatch probe: %w", err)
	}
	defer c.Close()
	nop := func(int) error { return nil }
	before := r.speed()
	start := time.Now()
	for i := 0; i < dispatchCalls; i++ {
		if err := c.ForSmall(nop); err != nil {
			return 0, fmt.Errorf("dispatch probe: %w", err)
		}
	}
	s := sample{secs: time.Since(start).Seconds(), running: 1}
	s.probe = (before + r.speed()) / 2
	return s.scaled() * 1e6 / dispatchCalls, nil
}

// tracedRun measures the per-layer metrics of one workload, all at
// GOMAXPROCS=1 except the parallel-speedup passes: untraced passes (the
// cells' seconds and the base of trace.overhead_ratio), traced passes under
// a CPU profile with the ledger attached, then the ablation twins.
func tracedRun(name string, seed uint64, proto protocol, spansPath, profilePath string) (values, *runner, error) {
	r, err := newRunner(seed, proto)
	if err != nil {
		return nil, nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wl, _, err := r.setUp(name, 1)
	if err != nil {
		return nil, nil, err
	}
	v := values{}
	n := proto.tracePasses

	plain := r.passes("untraced", 1, n, wl.cells)
	cellSecs := cellMedians(plain)
	for i, c := range wl.cells {
		v[c.metric] = cellSecs[i]
	}
	wallP1 := sum(cellSecs)

	var prof bytes.Buffer
	usageBefore, err := readHostUsage()
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("start CPU profile: %w", err)
	}
	r.ledger = newLedger()
	traced := r.passes("traced", 1, n, wl.cells)
	led := r.ledger
	r.ledger = nil
	pprof.StopCPUProfile()
	usageAfter, err := readHostUsage()
	if err != nil {
		return nil, nil, err
	}

	// The ledger's shares are of the traced cells' wall-clock seconds: both
	// sides of each ratio come from the same instant, so neither is scaled.
	var tracedWall float64
	for _, p := range traced {
		for _, s := range p {
			tracedWall += s.secs
		}
	}
	ls := led.summarize()
	attributed := 0.0
	for _, layer := range ledgerLayers() {
		v[layer+".host_share"] = ls.host[layer] / tracedWall
		v[layer+".rounds"] = float64(ls.rounds[layer]) / float64(n)
		attributed += ls.host[layer]
	}
	v["ledger.tail_share"] = ls.self / tracedWall
	v["ledger.coverage"] = (attributed + ls.self) / tracedWall
	v["trace.overhead_ratio"] = sum(cellMedians(traced)) / wallP1

	p, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for bucket, share := range cpuShares(p) {
		v["cpu."+bucket+"_share"] = share
	}
	per := float64(n)
	v["runtime.gc_cycles"] = float64(usageAfter.gcCycles-usageBefore.gcCycles) / per
	v["runtime.gc_pause_ms"] = float64(usageAfter.gcPauseNs-usageBefore.gcPauseNs) / 1e6 / per
	v["runtime.cpu_user_s"] = (usageAfter.userS - usageBefore.userS) / per
	v["runtime.cpu_sys_s"] = (usageAfter.sysS - usageBefore.sysS) / per
	v["runtime.minor_faults"] = float64(usageAfter.minorFaults-usageBefore.minorFaults) / per

	if spansPath != "" {
		if err := led.write(spansPath); err != nil {
			return nil, nil, err
		}
	}
	if profilePath != "" {
		if err := os.WriteFile(profilePath, prof.Bytes(), 0o644); err != nil {
			return nil, nil, fmt.Errorf("write CPU profile: %w", err)
		}
	}

	// Ablation twins: the same cells with one thing switched off.
	twin := map[string]float64{} // by cell name
	if len(wl.twins) > 0 {
		for i, secs := range cellMedians(r.passes("twins", 1, n, wl.twins)) {
			c := wl.twins[i]
			twin[c.name] = secs
			if c.metric != "" {
				v[c.metric] = secs
			}
		}
	}
	switch name {
	case "wire":
		var wireBytes, words float64
		for _, s := range plain[0] {
			wireBytes += float64(s.stats.WireBytes)
			words += float64(s.stats.TotalWords)
		}
		v["wire.overhead_ratio"] = wallP1 / (2 * (twin["wire.mst_inproc"] + twin["wire.matching_inproc"]))
		v["wire.bytes_per_word"] = wireBytes / words
	case "hetero":
		plainMST := twin["plain.mst"]
		v["overlay.overhead_ratio"] = wallP1 / (plainMST + twin["plain.matching"] + twin["plain.cc"])
		v["mpc.profile_ratio"] = twin["only.profile"] / plainMST
		v["fault.plan_ratio"] = twin["only.faults"] / plainMST
		v["sched.adaptive_ratio"] = twin["only.adaptive"] / plainMST
		v["trace.observe_ratio"] = twin["only.observe"] / plainMST
		for _, s := range plain[0] {
			v["fault.crashes"] += float64(s.stats.Crashes)
			v["fault.recovery_rounds"] += float64(s.stats.RecoveryRounds)
			v["fault.checkpoints"] += float64(s.stats.Checkpoints)
			v["fault.replication_words"] += float64(s.stats.ReplicationWords)
			v["sched.speculation_words"] += float64(s.stats.SpeculationWords)
		}
	}

	// The mpc layer: dispatch cost and what the second core returns.
	if v["mpc.forsmall_dispatch_p1_us"], err = r.forSmallDispatchUs(1); err != nil {
		return nil, nil, err
	}
	nproc := runtime.NumCPU()
	if v["mpc.forsmall_dispatch_us"], err = r.forSmallDispatchUs(nproc); err != nil {
		return nil, nil, err
	}
	v["mpc.parallel_speedup"] = wallP1 / sum(cellMedians(r.passes("parallel", nproc, n, wl.cells)))
	return v, r, nil
}
