package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hetmpc/internal/exp"
)

// TestExitCodes pins the exit-code contract: 0 ok, 1 the run or a write of
// its outputs failed, 2 bad input — and bad input is refused before any
// work is done, so nothing reaches stdout. Every listed algorithm must run:
// the list is exp's table of calls, which the -alg lookup and help read.
func TestExitCodes(t *testing.T) {
	small := []string{"-n", "64", "-m", "256"}
	// A header declaring more edges than a slice can hold: refused as it is
	// read, not sized up front.
	hugeM := filepath.Join(t.TempDir(), "huge-m.txt")
	if err := os.WriteFile(hugeM, []byte("hetmpc-graph 10 999999999999999 0\n0 1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	type testCase struct {
		name   string
		args   []string
		code   int
		stdout string // substring; with code 2 stdout must be empty
		stderr string // substring
	}
	cases := []testCase{
		{"ok", []string{"-alg", "mst"}, 0, "(validated exact)", ""},
		{"ok traced", []string{"-alg", "connectivity", "-trace"}, 0, "conservation: trace makespan", ""},
		{"ok cycles", []string{"-alg", "2v1", "-gen", "cycles2"}, 0, "cycles=2", ""},
		{"gen cut", []string{"-alg", "mincut", "-gen", "cut"}, 0, "(validated exact)", ""},
		{"gen complete", []string{"-alg", "mst", "-gen", "complete"}, 0, "(validated exact)", ""},
		{"run fails", []string{"-alg", "2v1", "-gen", "gnm"}, 1, "graph: n=64", "not a disjoint union of cycles"},
		{"output write fails", []string{"-metrics", filepath.Join(t.TempDir(), "no", "m.json")}, 1, "model: rounds=", "no such file"},
		{"unknown algorithm", []string{"-alg", "nope"}, 2, "", `unknown algorithm "nope"`},
		{"unknown generator", []string{"-gen", "nope"}, 2, "", `unknown generator "nope"`},
		{"spanner k below 1", []string{"-alg", "spanner", "-k", "-3"}, 2, "", "-k must be at least 1"},
		{"baseline-spanner k below 1", []string{"-alg", "baseline-spanner", "-k", "0"}, 2, "", "-k must be at least 1 for baseline-spanner"},
		{"approx-mst eps not positive", []string{"-alg", "approx-mst", "-eps", "0"}, 2, "", "-eps must be positive"},
		{"approx-mst eps infinite", []string{"-alg", "approx-mst", "-eps", "+Inf"}, 2, "", "-eps must be positive and finite"},
		{"approx-mincut eps outside (0,1)", []string{"-alg", "approx-mincut", "-eps", "1"}, 2, "", "-eps must be in (0,1)"},
		{"no large machine", []string{"-alg", "baseline-cc"}, 0, "large-cap=-\n", ""},
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"bad profile spec", []string{"-profile", "nope"}, 2, "", "nope"},
		{"bad fault spec", []string{"-faults", "nope"}, 2, "", "nope"},
		// K = 32: a speculation factor past K/2 runs clamped to K/2, and the
		// header names the factor that ran (Cluster.SpeculationR).
		{"speculate past K", []string{"-placement", "speculate:99"}, 0, "placement=speculate:99 (effective speculate:16)", ""},
		{"bad placement spec", []string{"-placement", "nope"}, 2, "", "nope"},
		{"bad transport spec", []string{"-transport", "nope"}, 2, "", "nope"},
		{"unreadable graph", []string{"-input", filepath.Join(t.TempDir(), "missing.txt")}, 2, "", "no such file"},
		{"bad graph header", []string{"-alg", "connectivity", "-input", hugeM}, 2, "", "graph:"},
	}
	// Every answer with an exact reference is checked against it; the two
	// approximations report their error instead.
	for _, alg := range exp.CallNames() {
		gen, want := "gnm", "(validated"
		if alg == "2v1" {
			gen = "cycles"
		}
		if strings.HasPrefix(alg, "approx-") {
			want = "model: rounds="
		}
		cases = append(cases, testCase{"alg " + alg, []string{"-alg", alg, "-gen", gen}, 0, want, ""})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(slices.Concat(small, tc.args), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if tc.code == 2 && stdout.Len() != 0 {
				t.Errorf("bad input wrote to stdout: %s", &stdout)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
}
