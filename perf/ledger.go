package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"hetmpc"
)

// A span is one timed interval on the host clock. Passes parent cells,
// cells parent one span per engine record (exchange round, checkpoint
// barrier, crash recovery); Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Kind   string  `json:"kind"` // "pass", "cell", or a hetmpc.TraceKind*
	Name   string  `json:"name"` // cell name, or the record's "/"-joined phase path
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// ledger records spans from outside the program: the runner opens pass and
// cell spans, and the ledger — attached as the sink of the façade's trace
// collector — closes one child span per engine record, charging the host
// time since the previous record to that record's phase path.
type ledger struct {
	epoch time.Time
	spans []span
	pass  int     // open pass span id, 0 = none
	cell  int     // open cell span id, 0 = none
	prev  float64 // where the open cell's next record span starts
}

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (l *ledger) now() float64 { return time.Since(l.epoch).Seconds() }

func (l *ledger) open(kind, name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Kind: kind, Name: name, Start: l.now()})
	return id
}

func (l *ledger) beginPass(name string) { l.pass = l.open("pass", name, 0) }
func (l *ledger) endPass()              { l.spans[l.pass-1].End, l.pass = l.now(), 0 }
func (l *ledger) beginCell(name string) { l.cell = l.open("cell", name, l.pass) }
func (l *ledger) endCell()              { l.spans[l.cell-1].End, l.cell = l.now(), 0 }

// clusterReady marks the end of NewCluster: the interval before it is the
// cell's own, not the first round's.
func (l *ledger) clusterReady() { l.prev = l.now() }

// attach routes cfg's trace records through the ledger. A cell that brings
// its own collector (the hetero overlays) keeps buffering into it, as it
// does untraced.
func (l *ledger) attach(cfg *hetmpc.Config) {
	if cfg.Trace != nil {
		cfg.Trace.SetSink(l, true)
		return
	}
	cfg.Trace = hetmpc.NewTrace()
	cfg.Trace.SetSink(l, false)
}

// Record implements the trace sink.
func (l *ledger) Record(r hetmpc.TraceRound) {
	if l.cell == 0 {
		return
	}
	now := l.now()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: l.cell, Kind: r.Kind, Name: r.Phase, Start: l.prev, End: now,
	})
	l.prev = now
}

// primsSpans are the span names the prims collectives open; a record whose
// innermost span is none of them belongs to the algorithm ("core.own").
var primsSpans = []string{"sort", "broadcast", "aggregate", "sum", "gather", "scatter", "arrange", "distribute", "seed"}

const ownLayer = "core.own"

// ledgerLayers lists the layers a record can be charged to.
func ledgerLayers() []string {
	layers := []string{ownLayer}
	for _, p := range primsSpans {
		layers = append(layers, "prims."+p)
	}
	return layers
}

func layerOf(phase string) string {
	leaf := phase[strings.LastIndexByte(phase, '/')+1:]
	for _, p := range primsSpans {
		if leaf == p {
			return "prims." + p
		}
	}
	return ownLayer
}

// summary is the round-interval ledger: host seconds and exchange rounds
// per layer, and the cells' self time (cluster construction plus the tail
// after the last barrier).
type ledgerSummary struct {
	host   map[string]float64
	rounds map[string]int
	self   float64
}

func (l *ledger) summarize() ledgerSummary {
	s := ledgerSummary{host: map[string]float64{}, rounds: map[string]int{}}
	for _, sp := range l.spans {
		d := sp.End - sp.Start
		switch sp.Kind {
		case "pass":
		case "cell":
			s.self += d
		default:
			layer := layerOf(sp.Name)
			s.host[layer] += d
			s.self -= d
			if sp.Kind == hetmpc.TraceKindExchange {
				s.rounds[layer]++
			}
		}
	}
	return s
}

func (l *ledger) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
