// Package cliflags defines the cross-cutting flags of cmd/hetbench and
// cmd/hetrun once. Register installs -profile, -faults, -placement,
// -transport and -trace and fills an exp.Env; RegisterObs installs -metrics,
// -traceout, -cpuprofile and -memprofile, and Obs.Env adds the observers
// those need. Both commands then turn the one Env into cluster configuration
// through the one fill (exp.Env.Run or exp.Env.Apply), so a spec's syntax,
// help text and meaning are the same in each.
//
// WriteMetricsFile, WriteTraceFile and Obs.StartProfiles carry the shared
// output conventions ("-" = stdout, trace format by extension).
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hetmpc/internal/exp"
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

// Spec-syntax fragments, shared verbatim by every command's help text.
const (
	// ProfileSyntax is the mpc.ParseProfile spec grammar.
	ProfileSyntax = "uniform, zipf:S[:FLOOR], bimodal:SLOWFRAC:FACTOR, straggler:N:SLOWDOWN, custom:I=SPEED,..."
	// FaultsSyntax is the fault.ParsePlan spec grammar.
	FaultsSyntax = "+-joined ckpt:I, crash:R:M[:K], rate:P[:SEED], slow:M:FROM:TO:FACTOR, restart:K (e.g. ckpt:8+rate:0.002)"
	// PlacementSyntax is the sched.Parse spec grammar.
	PlacementSyntax = "cap, throughput, speculate:R, adaptive[:ALPHA]"
	// TransportSyntax is the wire.Parse spec grammar (DESIGN.md §11).
	TransportSyntax = "inproc (shared memory), pipe (socketpair), tcp (loopback)"
	// TraceHelp describes the -trace toggle (DESIGN.md §9).
	TraceHelp = "collect the per-round trace timeline (phase spans, per-round makespan contributions, bottleneck machines); never changes the measured stats"
)

// Register installs the shared model flags on fs and returns the Env they
// fill. scope is appended to the flag nouns to say what the spec applies to
// (hetbench: " applied to every experiment cluster"; hetrun: ""), keeping
// each command's phrasing while sharing the one syntax string.
func Register(fs *flag.FlagSet, scope string) *exp.Env {
	e := &exp.Env{}
	fs.StringVar(&e.Profile, "profile", "", "machine profile"+scope+": "+ProfileSyntax)
	fs.StringVar(&e.Faults, "faults", "", "fault plan"+scope+": "+FaultsSyntax)
	fs.StringVar(&e.Placement, "placement", "", "placement policy"+scope+": "+PlacementSyntax)
	fs.StringVar(&e.Transport, "transport", "", "Exchange transport"+scope+": "+TransportSyntax)
	fs.BoolVar(&e.Trace, "trace", false, TraceHelp)
	return e
}

// Observability flag help, shared verbatim (DESIGN.md §12).
const (
	// MetricsHelp describes -metrics: the engine metrics snapshot target.
	MetricsHelp = "write the run's metrics snapshot (word, round and fault counters per machine and phase, folded from the round records) as JSON to this file; '-' = stdout; metrics observe, they never change the measured stats"
	// TraceOutHelp describes -traceout: the raw trace export target; the
	// extension picks the format.
	TraceOutHelp = "write the per-round trace to this file: .jsonl = streaming JSONL, anything else = Chrome trace-event JSON (load in Perfetto/chrome://tracing); implies -trace"
	// CPUProfileHelp / MemProfileHelp describe the pprof capture flags.
	CPUProfileHelp = "write a CPU profile to this file (inspect with go tool pprof)"
	MemProfileHelp = "write a heap profile to this file at exit (inspect with go tool pprof)"
)

// Obs holds the parsed observability flags.
type Obs struct {
	Metrics    string
	TraceOut   string
	CPUProfile string
	MemProfile string
}

// RegisterObs installs the shared observability flags on fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.Metrics, "metrics", "", MetricsHelp)
	fs.StringVar(&o.TraceOut, "traceout", "", TraceOutHelp)
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", CPUProfileHelp)
	fs.StringVar(&o.MemProfile, "memprofile", "", MemProfileHelp)
	return o
}

// Env returns e with the observers o's outputs need: a trace collector for
// -traceout as for -trace, a metrics registry for -metrics.
func (o *Obs) Env(e exp.Env) exp.Env {
	e.Trace = e.Trace || o.TraceOut != ""
	e.Metrics = e.Metrics || o.Metrics != ""
	return e
}

// StartProfiles begins the pprof captures o asks for and returns the stop
// function to defer: it stops the CPU profile and writes the heap profile
// (after a final GC, so the profile shows live objects rather than garbage).
// With neither flag set it is a no-op pair.
func (o *Obs) StartProfiles() (stop func() error, err error) {
	var cpu *os.File
	if o.CPUProfile != "" {
		cpu, err = os.Create(o.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if o.MemProfile != "" {
			f, err := os.Create(o.MemProfile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// openOut resolves the "-" = stdout convention. The returned close func is a
// no-op for stdout (the process owns that descriptor).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// WriteMetricsFile writes a metrics snapshot as schema-stamped JSON to path
// ("-" = stdout).
func WriteMetricsFile(path string, samples []metrics.Sample) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteSamples(w, samples); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

// WriteTraceFile writes a recorded timeline to path ("-" = stdout) in the
// format the extension names: ".jsonl" streams the schema-stamped JSONL
// record format (trace.WriteJSONL), anything else renders the Chrome
// trace-event JSON that Perfetto and chrome://tracing load directly.
func WriteTraceFile(path string, rounds []trace.Round) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = trace.WriteJSONL(w, rounds)
	} else {
		err = trace.WritePerfetto(w, rounds)
	}
	if err != nil {
		closeFn()
		return fmt.Errorf("%s: %w", path, err)
	}
	return closeFn()
}
