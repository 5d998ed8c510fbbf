// Round traces: where does the makespan actually go?
//
// Stats.Makespan is one number; the paper's cost arguments — and any
// attempt to make a heterogeneous cluster faster — are per-round and
// per-phase. This example walks the trace layer (DESIGN.md §9) on an MST
// run over a straggler cluster:
//
//  1. attach a collector (Config.Trace = hetmpc.NewTrace()). The simulator
//     now records every makespan contribution — exchange rounds, and on
//     fault-active clusters checkpoint barriers and crash recoveries —
//     tagged with the phase-span path the algorithm had open
//     (Cluster.Span; the prims tag themselves: distribute, sort,
//     aggregate, broadcast, …);
//  2. read the raw timeline: each record carries the round's words, its
//     exact makespan contribution, and the argmax machine that set the
//     round's clock;
//  3. summarize: per-phase makespan shares and the bottleneck machine per
//     phase — the critical path. Conservation is exact: the ordered sum of
//     the contributions reproduces Stats.Makespan bit-for-bit, and the
//     per-round words sum to TotalWords.
//
// Tracing observes and never perturbs: the traced run's Stats are
// bit-identical to the same run untraced.
//
// Run with:
//
//	go run ./examples/round-traces
package main

import (
	"fmt"
	"log"

	"hetmpc"
)

func main() {
	const n, m = 256, 2048
	g := hetmpc.ConnectedGNM(n, m, 5, true)
	_, exact := hetmpc.KruskalMSF(g)

	// Step 1: a straggler cluster with a trace collector attached.
	tr := hetmpc.NewTrace()
	cfg := hetmpc.Config{N: n, M: m, Seed: 9, Trace: tr}
	p := hetmpc.StragglerProfile(cfg.DeriveK(), 2, 8)
	p.LargeCost = 1.0 / 32 // beefy coordinator, 64× compute and link: the slow tail sets the clock
	cfg.Profile = p
	c, err := hetmpc.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r, err := hetmpc.MST(c, g)
	if err != nil {
		log.Fatal(err)
	}
	if r.Weight != exact {
		log.Fatalf("MST weight %d, want %d", r.Weight, exact)
	}
	st := c.Stats()

	// Step 2: the raw timeline — the first rounds, one line each.
	rounds := tr.Rounds()
	fmt.Printf("MST on straggler:2:8: %d trace records for %d rounds, makespan %.4g\n\n",
		len(rounds), st.Rounds, st.Makespan)
	fmt.Printf("%5s  %-40s %8s %10s  %s\n", "round", "phase", "words", "makespan", "set by")
	show := 12
	for i, rec := range rounds {
		if i >= show {
			fmt.Printf("%5s  ... %d more rounds\n", "", len(rounds)-show)
			break
		}
		fmt.Printf("%5d  %-40s %8d %10.4g  %s\n",
			rec.Round, rec.Phase, rec.Words, rec.Makespan, hetmpc.TraceMachineName(rec.Argmax))
	}

	// Step 3: the critical-path summary — which phase carries the clock,
	// and which machine bounds it.
	s := hetmpc.SummarizeTrace(rounds)
	fmt.Printf("\nphase summary (shares partition the makespan exactly):\n")
	fmt.Printf("%-40s %6s %9s %6s  %s\n", "phase", "rounds", "makespan", "share", "bottleneck")
	for _, ph := range s.Phases {
		fmt.Printf("%-40s %6d %9.4g %5.1f%%  %s\n",
			ph.Phase, ph.Rounds, ph.Makespan, 100*ph.Share, hetmpc.TraceMachineName(ph.Top))
	}

	// Conservation: the trace is the makespan, decomposed.
	sum := 0.0
	var words int64
	for _, rec := range rounds {
		sum += rec.Makespan
		words += rec.Words
	}
	fmt.Printf("\nconservation: Σ contributions = %.6g (Stats.Makespan %.6g), Σ words = %d (TotalWords %d)\n",
		sum, st.Makespan, words, st.TotalWords)
	if sum != st.Makespan || words != st.TotalWords {
		log.Fatal("conservation broken — this is a bug")
	}

	// Spans also replace the before/diff pattern for ad-hoc measurement:
	// an explicit scope around a second run returns its Stats delta.
	sp := c.Span("second-run")
	if _, err := hetmpc.MST(c, g); err != nil {
		log.Fatal(err)
	}
	d := sp.End()
	fmt.Printf("\nSpan(\"second-run\").End(): %d rounds, %d words, makespan +%.4g\n",
		d.Rounds, d.TotalWords, d.Makespan)
}
