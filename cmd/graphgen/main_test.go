package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"hetmpc/internal/graph"
)

// TestExitCodes pins the exit-code contract: every name in graph.Generators
// exits 0 with a graph that graph.Read reads back at the requested n, and an
// unknown generator exits 2 with nothing on stdout.
func TestExitCodes(t *testing.T) {
	const n = 64 // square, so grid's side is exact
	for _, name := range graph.Generators {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-gen", name, "-n", strconv.Itoa(n), "-m", "256", "-weighted"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0\nstderr: %s", code, &stderr)
			}
			g, err := graph.Read(&stdout)
			if err != nil {
				t.Fatalf("graph.Read: %v", err)
			}
			if g.N != n {
				t.Errorf("read back n=%d, want %d", g.N, n)
			}
		})
	}
	t.Run("unknown generator", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-gen", "nope"}, &stdout, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2\nstderr: %s", code, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("bad input wrote to stdout: %s", &stdout)
		}
		if !strings.Contains(stderr.String(), `unknown generator "nope"`) {
			t.Errorf("stderr lacks the generator's name: %s", &stderr)
		}
	})
}
