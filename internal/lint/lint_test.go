package lint

import (
	"strings"
	"testing"
)

func TestHetlintComment(t *testing.T) {
	cases := []struct {
		text      string
		key, just string
		ok        bool
	}{
		{"//hetlint:sorted keys feed a golden", "sorted", "keys feed a golden", true},
		{"//hetlint:sorted", "sorted", "", true},
		{"//hetlint:nondet — wall-clock metering only", "nondet", "wall-clock metering only", true},
		{"// plain comment", "", "", false},
		{"//hetlint:", "", "", false},
		{"// hetlint:sorted spaced prefix is not a directive", "", "", false},
	}
	for _, c := range cases {
		key, just, ok := hetlintComment(c.text)
		if key != c.key || just != c.just || ok != c.ok {
			t.Errorf("hetlintComment(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, key, just, ok, c.key, c.just, c.ok)
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
	}{
		{"plain", ""},
		{"%s: %v", "sv"},
		{"%d%%", "d"},
		{"%+v and %#x", "vx"},
		{"%*d", "*d"},
		{"%.2f", "f"},
		{"%s: %v: %w", "svw"},
		{"%[1]d stops the mapping", ""},
	}
	for _, c := range cases {
		if got := string(formatVerbs(c.format)); got != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, got, c.verbs)
		}
	}
}

func TestIsEnginePath(t *testing.T) {
	for _, p := range []string{
		"hetmpc/internal/mpc", "hetmpc/internal/prims", "hetmpc/internal/sched",
		"hetmpc/internal/trace", "hetmpc/internal/metrics", "hetmpc/internal/wire",
		"hetmpc/internal/core", "hetmpc/internal/sublinear",
		"hetmpc/internal/labeling", "hetmpc/internal/unionfind",
	} {
		if !IsEnginePath(p) {
			t.Errorf("IsEnginePath(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"hetmpc", "hetmpc/internal/exp", "hetmpc/internal/graph",
		"hetmpc/internal/lint", "hetmpc/cmd/hetlint",
	} {
		if IsEnginePath(p) {
			t.Errorf("IsEnginePath(%q) = true, want false", p)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "detmap", Message: "map iteration"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line, d.Pos.Column = 7, 3
	if got, want := d.String(), "a/b.go:7:3: detmap: map iteration"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.Contains(d.String(), d.Analyzer) {
		t.Error("String() must carry the analyzer name")
	}
}
