package hetmpc_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hetmpc"
)

// The cross-transport conformance suite (DESIGN.md §11): one table-driven
// harness run over all three Exchange transports, asserting that moving the
// deliver phase onto a real wire changes nothing the model can see —
// byte-identical algorithm outputs, identical ClusterStats and trace
// records (the modeled side), identical frame streams between the two real
// transports — and that the only new observable is wire_bytes.

// wireRun is one workload execution's full observable surface.
type wireRun struct {
	result    any                 // the algorithm's result struct (output + comm stats)
	stats     hetmpc.ClusterStats // cluster stats with WireBytes zeroed for comparison
	wireBytes int64               // measured bytes (zero iff inproc)
	trace     []hetmpc.TraceRound // trace records with WireBytes zeroed
	traceWire int64               // Σ per-round wire bytes from the trace
}

// conformanceWorkload is one algorithm of the suite, run on every profile
// it names, on k small machines. k is 0, the derived K, but in a cell that
// sets it to make Sort's leaders send each other summaries and their groups
// the splitter list, and such a cell must show a summary round.
type conformanceWorkload struct {
	name     string
	k        int
	profiles []string
	run      func(c *hetmpc.Cluster) (any, error)
}

// conformanceWorkloads are the algorithm × profile cells of the suite.
var conformanceWorkloads = []conformanceWorkload{
	{"mst", 0, []string{"", "zipf:0.8", "straggler:2:8"}, func(c *hetmpc.Cluster) (any, error) {
		g := hetmpc.ConnectedGNM(512, 4096, 7, true)
		return hetmpc.MST(c, g)
	}},
	// At K = 32 a machine's run outgrows its sample, so Sort's 6 group
	// leaders exchange summaries of 4g keys and send their groups the
	// splitter list (DESIGN.md §1): both payloads cross the wire.
	{"mst-k32", 32, []string{""}, func(c *hetmpc.Cluster) (any, error) {
		g := hetmpc.ConnectedGNM(512, 4096, 7, true)
		return hetmpc.MST(c, g)
	}},
	{"connectivity", 0, []string{"", "zipf:0.8", "bimodal:0.25:4", "straggler:2:8"}, func(c *hetmpc.Cluster) (any, error) {
		g := hetmpc.GNM(512, 4096, 7)
		return hetmpc.Connectivity(c, g)
	}},
	// A sublinear baseline's result carries the same model-only Stats as a
	// core one: WireBytes stays on the cluster.
	{"baseline-connectivity", 0, []string{""}, func(c *hetmpc.Cluster) (any, error) {
		g := hetmpc.GNM(512, 4096, 7)
		return hetmpc.BaselineConnectivity(c, g)
	}},
	// Phase 1's peel plans its live endpoints in every iteration after the
	// first, which runs over matching's endpoint plan: NewPlan, PlanCombine's
	// span-up round and PlanBroadcast cross the wire.
	{"matching", 0, []string{"", "straggler:2:8"}, func(c *hetmpc.Cluster) (any, error) {
		g := hetmpc.ConnectedGNM(512, 4096, 7, false)
		return hetmpc.MaximalMatching(c, g)
	}},
}

func runConformanceCell(t *testing.T, wl conformanceWorkload, profile, transport string) wireRun {
	t.Helper()
	cfg := hetmpc.Config{N: 512, M: 4096, K: wl.k, Seed: 7}
	if profile != "" {
		p, err := hetmpc.ParseProfile(profile, cfg.DeriveK())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Profile = p
	}
	tr, err := hetmpc.ParseTransport(transport)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = tr
	col := hetmpc.NewTrace()
	cfg.Trace = col
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := wl.run(c)
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", wl.name, profile, transport, err)
	}
	r := wireRun{result: res, stats: c.Stats(), wireBytes: c.Stats().WireBytes}
	r.stats.WireBytes = 0
	r.trace = append([]hetmpc.TraceRound(nil), col.Rounds()...)
	for i := range r.trace {
		r.traceWire += r.trace[i].WireBytes
		r.trace[i].WireBytes = 0
	}
	return r
}

// TestCrossTransportGolden is the conformance gate: every (algorithm ×
// profile) cell must produce bit-identical outputs, ClusterStats and trace
// timelines on inproc, pipe and tcp, under GOMAXPROCS 1, 4 and 8 — and the
// two real transports must put the identical, non-zero byte count on the
// wire, with the per-round trace bytes summing to it exactly.
func TestCrossTransportGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, wl := range conformanceWorkloads {
		for _, spec := range wl.profiles {
			profName := spec
			if profName == "" {
				profName = "uniform"
			}
			t.Run(wl.name+"/"+profName, func(t *testing.T) {
				runtime.GOMAXPROCS(prev)
				base := runConformanceCell(t, wl, spec, "inproc")
				if base.wireBytes != 0 || base.traceWire != 0 {
					t.Fatalf("inproc measured %d wire bytes (%d traced), want 0", base.wireBytes, base.traceWire)
				}
				summarised := slices.ContainsFunc(base.trace, func(r hetmpc.TraceRound) bool {
					return strings.HasSuffix(r.Phase, "sort/summary")
				})
				if wl.k != 0 && !summarised {
					t.Fatal("no Sort's leaders exchange summaries: the cell does not put summary payloads on the wire")
				}
				var pipeBytes, tcpBytes int64
				for _, transport := range []string{"inproc", "pipe", "tcp"} {
					for _, procs := range []int{1, 4, 8} {
						runtime.GOMAXPROCS(procs)
						got := runConformanceCell(t, wl, spec, transport)
						tag := fmt.Sprintf("%s@GOMAXPROCS=%d", transport, procs)
						if !reflect.DeepEqual(got.result, base.result) {
							t.Errorf("%s: algorithm output diverged from inproc", tag)
						}
						if got.stats != base.stats {
							t.Errorf("%s: modeled stats diverged:\n got %+v\nwant %+v", tag, got.stats, base.stats)
						}
						if !reflect.DeepEqual(got.trace, base.trace) {
							t.Errorf("%s: trace timeline diverged from inproc", tag)
						}
						if got.traceWire != got.wireBytes {
							t.Errorf("%s: trace wire bytes %d != stats wire bytes %d", tag, got.traceWire, got.wireBytes)
						}
						switch transport {
						case "inproc":
							if got.wireBytes != 0 {
								t.Errorf("%s: measured %d wire bytes on shared memory", tag, got.wireBytes)
							}
						case "pipe":
							if got.wireBytes <= 0 {
								t.Errorf("%s: no bytes measured", tag)
							}
							if pipeBytes == 0 {
								pipeBytes = got.wireBytes
							} else if got.wireBytes != pipeBytes {
								t.Errorf("%s: wire bytes vary across GOMAXPROCS: %d vs %d", tag, got.wireBytes, pipeBytes)
							}
						case "tcp":
							if tcpBytes == 0 {
								tcpBytes = got.wireBytes
							} else if got.wireBytes != tcpBytes {
								t.Errorf("%s: wire bytes vary across GOMAXPROCS: %d vs %d", tag, got.wireBytes, tcpBytes)
							}
						}
					}
				}
				if pipeBytes != tcpBytes {
					t.Errorf("frame streams differ between transports: pipe %d bytes, tcp %d bytes", pipeBytes, tcpBytes)
				}
			})
		}
	}
}

// TestTransportPeerDeathSurfacesError is the facade-level half of the
// silent-hang regression: when a machine's link dies, the next algorithm
// run must fail — inside the watchdog window — with a typed ErrTransport
// naming the dead link, propagated through the algorithm entry point.
func TestTransportPeerDeathSurfacesError(t *testing.T) {
	for _, transport := range []string{"pipe", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			tr, err := hetmpc.ParseTransport(transport)
			if err != nil {
				t.Fatal(err)
			}
			cfg := hetmpc.Config{N: 256, M: 2048, Seed: 3, Transport: tr}
			c, err := hetmpc.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			g := hetmpc.GNM(256, 2048, 3)
			if _, err := hetmpc.Connectivity(c, g); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			if err := c.KillLink(1); err != nil {
				t.Fatalf("KillLink: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := hetmpc.Connectivity(c, g)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("algorithm hung after the peer died (silent-hang regression)")
			}
			if !errors.Is(err, hetmpc.ErrTransport) {
				t.Fatalf("err = %v, want wrapped hetmpc.ErrTransport", err)
			}
		})
	}
}
