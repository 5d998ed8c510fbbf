package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// A metric is one row of the benchmark's contract. The two tables below are
// the single source for BENCHMARK.json, for -list and for what a run emits.
type metric struct {
	name   string
	unit   string
	clock  string  // "host", "model" or "-": which clock the number is on
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening that counts as a regression
	layer  string  // per-layer only: the module measured
	moves  string  // per-layer only: the end-to-end metric it should move
	on     string  // per-layer only: workloads it is measured on ("" = all); elsewhere it reads 0
	note   string
}

// The bounds are what ten runs on ten different seeds allow (README.md,
// "End-to-end metrics"): the driver refuses a bound that the spread across
// seeds exceeds, and the seed moves table1's rounds and allocations by
// 7-10 % before any host noise.
const (
	boundWide   = 0.25
	boundWords  = 0.15
	runSeconds  = 18
	failShare   = "fail_share"
	exactNote   = "exact for a seed: a change means the simulated system changed"
	noDirection = "no direction: recorded, never claimed"
)

// endToEnd lists what a user of the simulator sees, per workload.
// fail_share is always printed but is not in BENCHMARK.json, whose metrics
// may never read 0; the result line's "failed" and "attempted" carry it.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", clock: "host", better: "lower", bound: boundWide, note: "sum over cells of the cell's median scaled seconds across timed passes, GOMAXPROCS=nproc"},
	{name: "wall_p1_s", unit: "s", clock: "host", better: "lower", bound: boundWide, note: "the same at GOMAXPROCS=1"},
	{name: "allocs_per_round", unit: "allocs", clock: "host", better: "lower", bound: boundWide, note: "Mallocs over timed cells / model rounds, GOMAXPROCS=1 passes"},
	{name: "alloc_kb_per_round", unit: "KiB", clock: "host", better: "lower", bound: boundWide, note: "TotalAlloc over timed cells / model rounds, GOMAXPROCS=1 passes"},
	{name: "peak_rss_mb", unit: "MiB", clock: "host", better: "lower", bound: boundWide, note: "VmHWM of the workload's process at exit"},
	{name: "model_rounds", unit: "rounds", clock: "model", better: "lower", bound: boundWide, note: exactNote},
	{name: "model_words", unit: "words", clock: "model", better: "lower", bound: boundWords, note: exactNote},
	{name: "model_makespan", unit: "model-time", clock: "model", better: "lower", bound: boundWide, note: exactNote},
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: boundWide, note: "input generation + reference solutions (median of 3) + the untimed warm-up pass at GOMAXPROCS=nproc"},
	{name: failShare, unit: "ratio", clock: "-", better: "lower", note: "cells failed / cells attempted; any value above 0 fails the run"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(layer, moves, on, unit, clock, better, note string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{name: n, unit: unit, clock: clock, better: better, layer: layer, moves: moves, on: on, note: note})
		}
	}
	const cellNote = "median seconds of one cell across the traced run's untraced GOMAXPROCS=1 passes"
	for _, p := range []string{"cc", "mst", "spanner", "coloring", "mis", "matching"} {
		add("sublinear", "wall_s wall_p1_s", "table1", "s", "host", "lower", cellNote, "sublinear."+p+"_s")
		add("core", "wall_s wall_p1_s", "table1", "s", "host", "lower", cellNote, "core."+p+"_s")
	}
	add("core", "wall_s wall_p1_s", "scale", "s", "host", "lower", cellNote,
		"core.mst_k512_s", "core.cc_k512_s", "core.matching_k64_s", "core.mst_k2048_s")

	for _, p := range primsSpans {
		add("prims", "wall_p1_s allocs_per_round", "", "ratio", "host", "lower",
			"share of traced wall in rounds whose innermost span is this collective", "prims."+p+".host_share")
		add("prims", "model_rounds", "", "rounds", "model", "lower", exactNote, "prims."+p+".rounds")
	}
	add("core", "wall_p1_s", "", "ratio", "host", "lower", "share of traced wall in rounds whose innermost span is an algorithm span", "core.own.host_share")
	add("core", "model_rounds", "", "rounds", "model", "lower", exactNote, "core.own.rounds")
	add("ledger", "wall_p1_s", "", "ratio", "host", "lower", "cells' self time: cluster construction plus the tail after the last barrier", "ledger.tail_share")
	add("ledger", "-", "", "ratio", "host", "higher", "(attributed + tail) / traced wall; must be 1 ± 0.05", "ledger.coverage")

	add("mpc", "wall_s", "", "us", "host", "lower", "one empty-body ForSmall on the table1 cluster, GOMAXPROCS=nproc", "mpc.forsmall_dispatch_us")
	add("mpc", "wall_p1_s", "", "us", "host", "lower", "the same at GOMAXPROCS=1", "mpc.forsmall_dispatch_p1_us")
	add("mpc", "wall_s", "", "ratio", "host", "higher", "GOMAXPROCS=1 wall / GOMAXPROCS=nproc wall, untraced passes of the traced run", "mpc.parallel_speedup")

	add("wire", "wall_s wall_p1_s", "wire", "s", "host", "lower", cellNote,
		"wire.mst_pipe_s", "wire.matching_pipe_s", "wire.mst_tcp_s", "wire.matching_tcp_s")
	add("wire", "-", "wire", "s", "host", "lower", "in-process twin of the transport cells",
		"wire.mst_inproc_s", "wire.matching_inproc_s")
	add("wire", "wall_s wall_p1_s", "wire", "ratio", "host", "lower", "transport cells / (2 x in-process twins)", "wire.overhead_ratio")
	add("wire", "-", "wire", "B/word", "model", "lower", "WireBytes / TotalWords over the transport cells; "+noDirection, "wire.bytes_per_word")

	add("overlay", "wall_s wall_p1_s", "hetero", "s", "host", "lower", cellNote,
		"overlay.mst_s", "overlay.matching_s", "overlay.cc_s")
	add("overlay", "wall_s wall_p1_s", "hetero", "ratio", "host", "lower", "overlay cells / their twins with every overlay off", "overlay.overhead_ratio")
	const single = "MST cell with this overlay alone / the plain MST twin"
	add("mpc", "wall_p1_s", "hetero", "ratio", "host", "lower", single, "mpc.profile_ratio")
	add("fault", "wall_p1_s", "hetero", "ratio", "host", "lower", single, "fault.plan_ratio")
	add("sched", "wall_p1_s", "hetero", "ratio", "host", "lower", single, "sched.adaptive_ratio")
	add("trace", "wall_p1_s alloc_kb_per_round", "hetero", "ratio", "host", "lower", single+" (trace and metrics attached)", "trace.observe_ratio")
	add("fault", "-", "hetero", "count", "model", "lower", exactNote+"; "+noDirection,
		"fault.crashes", "fault.recovery_rounds", "fault.checkpoints", "fault.replication_words")
	add("sched", "-", "hetero", "words", "model", "lower", exactNote+"; "+noDirection, "sched.speculation_words")

	const cpuNote = "share of the traced passes' CPU samples, bucketed by the leaf frame's package"
	for _, l := range repoLayers {
		add(l, "wall_p1_s", "", "ratio", "host", "lower", cpuNote, "cpu."+l+"_share")
	}
	add("repo", "wall_p1_s", "", "ratio", "host", "lower", cpuNote+" (arena, xrand, unionfind, labeling, root)", "cpu."+cpuOtherRepo+"_share")
	add("wire", "wall_s wall_p1_s", "", "ratio", "host", "lower", cpuNote+" (syscall, internal/poll, net, os)", "cpu."+cpuSyscall+"_share")
	add("runtime", "wall_s allocs_per_round", "", "ratio", "host", "lower", "collector work: mark workers, assists, sweep, scavenge", "cpu."+cpuRuntimeGC+"_share")
	add("runtime", "wall_s alloc_kb_per_round", "", "ratio", "host", "lower", "allocator work: mallocgc, memclr, madvise", "cpu."+cpuRuntimeAlloc+"_share")
	add("runtime", "wall_s", "", "ratio", "host", "lower", "goroutine scheduling, parking and wake-ups", "cpu."+cpuRuntimeSched+"_share")
	add("runtime", "-", "", "ratio", "host", "lower", "everything else: the benchmark itself, the rest of the standard library", "cpu."+cpuOther+"_share")

	const perPass = "per traced pass"
	add("runtime", "wall_s allocs_per_round", "", "count", "host", "lower", perPass, "runtime.gc_cycles")
	add("runtime", "wall_s", "", "ms", "host", "lower", perPass, "runtime.gc_pause_ms")
	add("runtime", "wall_p1_s", "", "s", "host", "lower", perPass, "runtime.cpu_user_s")
	add("runtime", "wall_s", "", "s", "host", "lower", perPass, "runtime.cpu_sys_s")
	add("runtime", "peak_rss_mb setup_s", "", "count", "host", "lower", perPass, "runtime.minor_faults")

	add("trace", "-", "", "ratio", "host", "lower", "traced GOMAXPROCS=1 wall / untraced GOMAXPROCS=1 wall: the cost of the instrument", "trace.overhead_ratio")
	return ms
}

// values is what one run measured, by metric name.
type values map[string]float64

// emit prints every metric of table as "name value unit" in table order and
// returns the JSON form of those that belong in the result line. A metric
// that run did not measure — a per-layer metric of another workload —
// reads 0.
func emit(w io.Writer, table []metric, run values) map[string]measured {
	out := map[string]measured{}
	for _, m := range table {
		v := run[m.name]
		fmt.Fprintf(w, "%s %s %s\n", m.name, formatValue(v), m.unit)
		if m.name != failShare {
			out[m.name] = measured{v, m.unit}
		}
	}
	return out
}

// formatValue keeps every digit: model_makespan must round-trip.
func formatValue(v float64) string { return fmt.Sprintf("%.17g", v) }

// benchmarkJSON renders BENCHMARK.json from the tables.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "perf", "run", "."},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w[0], w[1]})
	}
	for _, m := range endToEnd {
		if m.name != failShare {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
		}
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return append(data, '\n'), nil
}

// list prints both tables for -list.
func list(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (per workload):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s unit=%-10s clock=%-5s better=%-6s bound=%-5g %s\n", m.name, m.unit, m.clock, m.better, m.bound, m.note)
	}
	fmt.Fprintln(w, "per-layer (traced run, -trace 1):")
	for _, m := range perLayer {
		on := m.on
		if on == "" {
			on = "all"
		}
		fmt.Fprintf(w, "  %-30s unit=%-6s clock=%-5s better=%-6s layer=%-9s on=%-6s moves=%-28s %s\n",
			m.name, m.unit, m.clock, m.better, m.layer, on, strings.ReplaceAll(m.moves, " ", ","), m.note)
	}
}
