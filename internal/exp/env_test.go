package exp

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
)

// TestEnvsRunConcurrently is the property the explicit Env buys: two
// differently configured runs of one experiment share a process without
// seeing each other. Each Env first runs alone, then both run from parallel
// subtests, and every concurrent artifact must reproduce its sequential
// one byte for byte: no field of an artifact is a process-wide quantity.
func TestEnvsRunConcurrently(t *testing.T) {
	envs := map[string]Env{
		"default":   {},
		"straggler": {Profile: "straggler:2:8", Trace: true},
	}
	want := map[string]*Artifact{}
	for name, env := range envs {
		art, _, err := env.Run("e14", 7)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = art
	}
	if want["straggler"].Profile != "straggler:2:8" || want["default"].Profile != "" {
		t.Fatalf("sequential tags: default %q, straggler %q", want["default"].Profile, want["straggler"].Profile)
	}
	if want["straggler"].Model.Makespan <= want["default"].Model.Makespan {
		t.Fatal("the straggler profile did not reach the clusters: the two Envs would be indistinguishable")
	}
	t.Run("concurrent", func(t *testing.T) {
		for name, env := range envs {
			for rep := 0; rep < 2; rep++ {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					got, _, err := env.Run("e14", 7)
					if err != nil {
						t.Fatal(err)
					}
					data, err := got.Marshal()
					if err != nil {
						t.Fatal(err)
					}
					wantData, err := want[name].Marshal()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, wantData) {
						t.Errorf("artifact diverged from the sequential run; first difference at %s", firstDiff(data, wantData))
					}
				})
			}
		}
	})
}

// TestRunClosesRealTransports: every cluster a run builds on a real
// transport is closed when Run returns, whatever the caller then does with
// the artifact — here the text-table path, which at one point bypassed the
// bookkeeping that closes clusters and left a socketpair per machine to
// the finalizers.
func TestRunClosesRealTransports(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip(err)
		}
		return len(ents)
	}
	before := openFDs()
	art, _, err := Env{Transport: "pipe"}.Run("e15", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Transport != "pipe" || art.Model.WireBytes == 0 {
		t.Fatalf("the transport override did not reach the clusters: %+v", art.Model)
	}
	var buf bytes.Buffer
	art.Table.Render(&buf)
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after the run, %d before: clusters left unclosed", after, before)
	}
}

// TestSweptAxesArePinned: an experiment that sweeps an axis pins it on every
// cluster, baseline rows included, so an Env override of that axis reaches
// none of them. The run succeeds, carries no tag, and marshals to the bytes
// of the plain run. One case per swept axis: profiles (e26, e22), fault
// plans (e21, e34) and placement policies (e34); no experiment sweeps
// transports.
func TestSweptAxesArePinned(t *testing.T) {
	for _, tc := range []struct {
		id  string
		env Env
	}{
		{"e26", Env{Profile: "straggler:2:8"}},
		{"e22", Env{Profile: "straggler:2:8"}},
		{"e21", Env{Faults: "ckpt:2+rate:0.01"}},
		{"e34", Env{Placement: "throughput"}},
		{"e34", Env{Faults: "ckpt:2+rate:0.01"}},
	} {
		got, _, err := tc.env.Run(tc.id, 7)
		if err != nil {
			t.Fatalf("%s under %+v: %v", tc.id, tc.env, err)
		}
		if got.Profile != "" || got.Faults != "" || got.Placement != "" || got.Transport != "" {
			t.Errorf("%s under %+v: artifact tagged profile %q faults %q placement %q transport %q",
				tc.id, tc.env, got.Profile, got.Faults, got.Placement, got.Transport)
		}
		want, _, err := Env{}.Run(tc.id, 7)
		if err != nil {
			t.Fatal(err)
		}
		gotData, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wantData, err := want.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Errorf("%s under %+v: artifact differs from the plain run at %s", tc.id, tc.env, firstDiff(gotData, wantData))
		}
	}
}

// TestPartialOverrideIsAnError: a spec that reached some but not all of a
// run's clusters fails the run, naming the experiment, the axis and k of n.
func TestPartialOverrideIsAnError(t *testing.T) {
	rn := &run{env: Env{Profile: "straggler:2:8"}}
	defer rn.close()
	g := graph.GNM(64, 256, 1)
	for _, cfg := range []mpc.Config{het(g.N, g.M(), 0, 1), profiled(g, 0, 1, "uniform", false)} {
		if _, err := rn.build(cfg); err != nil {
			t.Fatal(err)
		}
	}
	err := rn.tag(&Artifact{Exp: "probe"})
	if err == nil {
		t.Fatal("an override that reached 1 of 2 clusters was accepted")
	}
	for _, want := range []string{"probe", "profile", "1 of 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestMalformedSpecsFailValidateAndApply: Validate and Apply are one fill,
// so each malformed spec fails both with the same error, and a well-formed
// Env fills every axis and observer the Config leaves open.
func TestMalformedSpecsFailValidateAndApply(t *testing.T) {
	cfg := het(64, 256, 0, 1)
	for _, e := range []Env{
		{Profile: "nope"}, {Profile: "zipf:x"}, {Faults: "nope"}, {Faults: "ckpt:x"},
		{Placement: "nope"}, {Placement: "speculate:x"}, {Transport: "nope"},
	} {
		verr := e.Validate()
		_, aerr := e.Apply(cfg)
		if verr == nil || aerr == nil || verr.Error() != aerr.Error() {
			t.Errorf("%+v: Validate error %v, Apply error %v; want one error from both", e, verr, aerr)
		}
	}
	full := Env{Profile: "straggler:2:8", Faults: "ckpt:8", Placement: "throughput", Transport: "pipe", Trace: true, Metrics: true}
	got, err := full.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile == nil || got.Faults == nil || got.Placement == nil || got.Transport == nil || got.Trace == nil || got.Metrics == nil {
		t.Errorf("Apply(%+v) left an axis or observer open: %+v", full, got)
	}
}
