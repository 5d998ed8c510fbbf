package exp

import (
	"fmt"
	"reflect"

	"hetmpc/internal/graph"
	"hetmpc/internal/mpc"
	"hetmpc/internal/wire"
)

// The E32 sweep exercises the wire subsystem (DESIGN.md §11): the deliver
// phase of Exchange moved onto a real transport — framed binary codec over
// a socketpair (pipe) or loopback TCP — with the in-process memcpy path as
// the baseline. The contract the sweep re-proves cell by cell is the
// conformance guarantee: transports change *how* bytes move, never *what*
// the model sees. Outputs, modeled stats and round structure are asserted
// bit-identical across all three transports; the only new observable is
// wire_bytes, which must be identical between the two real transports (the
// frame stream is canonical) and zero on inproc.

// e32TransportSweep runs MST and connectivity across machine profiles ×
// transports and reports the measured frame bytes next to the modeled
// words.
func (rn *run) e32TransportSweep(seed uint64) (*Table, error) {
	const n, m = 256, 2048
	t := &Table{
		Title: fmt.Sprintf("E32 — transport × profile sweep (measured wire bytes vs modeled words), n=%d m=%d", n, m),
		Header: []string{"alg", "profile", "transport", "rounds", "words",
			"wire bytes", "bytes/word", "makespan"},
	}
	gW := graph.ConnectedGNM(n, m, seed, true)
	gU := graph.GNM(n, m, seed)
	_, wantW := graph.KruskalMSF(gW)
	_, wantComps := graph.Components(gU)

	algs := []struct {
		name     string
		g        *graph.Graph
		profiles []string
		run      func(*mpc.Cluster) (any, error)
	}{
		{"mst", gW, []string{"uniform", "zipf:0.8", "straggler:2:8"},
			func(c *mpc.Cluster) (any, error) { return mst(gW, wantW)(c) }},
		{"connectivity", gU, []string{"uniform", "zipf:0.8", "bimodal:0.25:4", "straggler:2:8"},
			func(c *mpc.Cluster) (any, error) { return cc(gU, wantComps)(c) }},
	}
	for _, alg := range algs {
		for _, prof := range alg.profiles {
			var baseResult any
			var baseStats mpc.Stats
			var pipeBytes int64
			for _, open := range []func() wire.Transport{
				func() wire.Transport { return wire.Inproc{} }, // pinned: bit-identical to nil
				func() wire.Transport { return wire.NewPipe() },
				func() wire.Transport { return wire.NewTCP() },
			} {
				cfg := profiled(alg.g, seed, prof, false)
				cfg.Transport = open() // links are per-cluster resources
				transport := cfg.Transport.Name()
				label := fmt.Sprintf("%s/%s/%s", alg.name, prof, transport)
				c, res, err := cell(rn, cfg, alg.run)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", label, err)
				}
				st := c.Stats()
				c.Close() // sockets are per-cell resources; stats are read
				wireBytes := st.WireBytes
				st = st.Model() // compare the modeled side only
				switch transport {
				case "inproc":
					if wireBytes != 0 {
						return nil, fmt.Errorf("%s: measured %d wire bytes on shared memory", label, wireBytes)
					}
					baseResult, baseStats = res, st
				default:
					// The conformance contract, re-proved on every cell: the
					// wire changes nothing the model can see.
					if !reflect.DeepEqual(res, baseResult) {
						return nil, fmt.Errorf("%s: algorithm output diverged from inproc", label)
					}
					if st != baseStats {
						return nil, fmt.Errorf("%s: modeled stats diverged from inproc:\n got %+v\nwant %+v", label, st, baseStats)
					}
					if wireBytes <= 0 {
						return nil, fmt.Errorf("%s: no bytes measured on a real transport", label)
					}
					if transport == "pipe" {
						pipeBytes = wireBytes
					} else if wireBytes != pipeBytes {
						return nil, fmt.Errorf("%s: frame stream differs from pipe: %d vs %d bytes (encoding not canonical?)", label, wireBytes, pipeBytes)
					}
				}
				t.AddRow(alg.name, prof, transport, st.Rounds, st.TotalWords,
					wireBytes, float64(wireBytes)/float64(st.TotalWords), st.Makespan)
			}
		}
	}
	t.Notes = append(t.Notes,
		"outputs and modeled stats are asserted bit-identical across inproc/pipe/tcp in every cell; wire_bytes is the only observable that moves",
		"pipe and tcp carry the identical canonical frame stream (asserted equal), so bytes/word is a transport-independent framing overhead",
	)
	return t, nil
}
