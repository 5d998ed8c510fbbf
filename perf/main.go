// Command perf is the repo's host-clock benchmark: four workloads driven
// through the root hetmpc façade only, end-to-end metrics measured with
// tracing off, and a per-layer ledger measured from outside the program in
// a separate traced run. README.md has the tables and the protocol.
//
//	go -C perf run . -workload table1            end-to-end metrics
//	go -C perf run . -workload table1 -trace 1   per-layer metrics
//	go -C perf run . -workload all -check-repeat two sets must agree
//	go -C perf run . -list                       every metric, with its contract
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name        = flag.String("workload", "all", "table1, scale, wire, hetero, or all (one child process per workload)")
		seed        = flag.Uint64("seed", 7, "generates the inputs and seeds the clusters")
		seconds     = flag.Float64("seconds", runSeconds, "timed-pass budget of an end-to-end run, split over the GOMAXPROCS settings")
		trace       = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
		spansPath   = flag.String("spans", "", "traced run: write the spans here as JSON")
		profilePath = flag.String("cpuprofile", "", "traced run: write the CPU profile of the traced passes here")
		checkRepeat = flag.Bool("check-repeat", false, "run the end-to-end set twice and fail unless the second is within bounds of the first")
		listOnly    = flag.Bool("list", false, "print every metric with unit, clock, direction, bound, layer and the metric it should move")
		benchJSON   = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *listOnly:
		list(os.Stdout)
		return nil
	case *benchJSON:
		data, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *seconds <= 0:
		return fmt.Errorf("-seconds %v: want a positive number", *seconds)
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	if *checkRepeat {
		return repeatCheck(names, *seed, *seconds)
	}
	if *name == "all" {
		// One process per workload, so heap state and peak RSS are the
		// workload's own.
		failed := 0
		for _, n := range names {
			if _, err := child(n, *seed, *seconds, *trace); err != nil {
				fmt.Fprintln(os.Stderr, "perf:", err)
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d workloads failed", failed, len(names))
		}
		return nil
	}
	return single(*name, *seed, *seconds, *trace == 1, *spansPath, *profilePath)
}

// single runs one workload in this process and prints its metrics, then
// the result line.
func single(name string, seed uint64, seconds float64, traced bool, spansPath, profilePath string) error {
	printRunInfo(seed)
	var (
		v     values
		r     *runner
		err   error
		table = endToEnd
	)
	if traced {
		table = perLayer
		v, r, err = tracedRun(name, seed, reference, spansPath, profilePath)
	} else {
		v, r, err = endToEndRun(name, seed, seconds, reference)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s cells attempted=%d failed=%d\n", name, r.attempted, r.failed)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	res.Metrics = emit(os.Stdout, table, v)
	if traced {
		if cov := v["ledger.coverage"]; math.Abs(cov-1) > 0.05 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "FAIL ledger.coverage = %v, want 1 ± 0.05\n", cov)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d cells failed", name, r.failed, r.attempted)
	}
	return nil
}

// child runs one workload in a fresh process, passing its output through,
// and returns the parsed result line.
func child(name string, seed uint64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate the benchmark binary: %w", err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	return &res, nil
}

// repeatCheck runs the end-to-end set of every named workload twice with
// the same seed. The second set must sit within each metric's own bound of
// the first; model-clock metrics must be equal.
func repeatCheck(names []string, seed uint64, seconds float64) error {
	bad := 0
	for _, n := range names {
		var sets [2]*result
		for i := range sets {
			res, err := child(n, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[i] = res
		}
		fmt.Printf("# check-repeat workload=%s nproc=%d\n", n, runtime.NumCPU())
		for _, m := range endToEnd {
			if m.name == failShare {
				continue
			}
			a, b := sets[0].Metrics[m.name].Value, sets[1].Metrics[m.name].Value
			gap := (b - a) / a
			limit := m.bound
			if m.clock == "model" {
				limit = 0
			}
			verdict := "ok"
			if math.IsNaN(gap) || math.Abs(gap) > limit {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-20s first=%-22s second=%-22s gap=%+.4f bound=%g %s\n",
				m.name, formatValue(a), formatValue(b), gap, limit, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check-repeat: %d metrics out of bound", bad)
	}
	return nil
}
