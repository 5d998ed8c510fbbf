package cliflags

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetmpc/internal/exp"
	"hetmpc/internal/metrics"
	"hetmpc/internal/trace"
)

func sampleRounds() []trace.Round {
	return []trace.Round{
		{Round: 1, Phase: "mst/contract", Kind: "exchange", Words: 64, Latency: 1, MaxTime: 2, Makespan: 3, Argmax: 0},
		{Round: 2, Phase: "mst/contract", Kind: "barrier", Latency: 1, Makespan: 1, Argmax: trace.None},
	}
}

func TestRegisterInstallsEveryModelFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	m := Register(fs, " applied to every experiment cluster")
	for _, name := range []string{"profile", "faults", "placement", "transport", "trace"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if name != "trace" && !strings.Contains(f.Usage, "applied to every experiment cluster") {
			t.Errorf("-%s usage lost the scope suffix: %q", name, f.Usage)
		}
	}
	err := fs.Parse([]string{
		"-profile", "zipf:1.1", "-faults", "ckpt:8", "-placement", "adaptive",
		"-transport", "pipe", "-trace",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Env{Profile: "zipf:1.1", Faults: "ckpt:8", Placement: "adaptive", Transport: "pipe", Trace: true}
	if *m != want {
		t.Errorf("parsed env = %+v, want %+v", *m, want)
	}
}

func TestRegisterObsInstallsEveryObsFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObs(fs)
	for _, name := range []string{"metrics", "traceout", "cpuprofile", "memprofile"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-metrics", "-", "-traceout", "t.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if o.Metrics != "-" || o.TraceOut != "t.jsonl" || o.CPUProfile != "" || o.MemProfile != "" {
		t.Errorf("parsed obs = %+v", *o)
	}
}

// Obs.Env: -traceout alone must imply a collector, exactly as its help text
// promises.
func TestTracingImpliedByTraceOut(t *testing.T) {
	cases := []struct {
		trace    bool
		traceOut string
		want     bool
	}{
		{false, "", false},
		{true, "", true},
		{false, "out.jsonl", true},
		{true, "out.json", true},
	}
	for _, c := range cases {
		e := exp.Env{Trace: c.trace}
		o := &Obs{TraceOut: c.traceOut}
		if got := o.Env(e).Trace; got != c.want {
			t.Errorf("Env(trace=%v, traceout=%q).Trace = %v, want %v", c.trace, c.traceOut, got, c.want)
		}
	}
}

// WriteTraceFile picks the format by extension: .jsonl streams the
// schema-stamped record format, anything else renders Chrome trace-event
// JSON for Perfetto.
func TestWriteTraceFileFormatByExtension(t *testing.T) {
	dir := t.TempDir()

	jl := filepath.Join(dir, "run.jsonl")
	if err := WriteTraceFile(jl, sampleRounds()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jl)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadJSONL on WriteTraceFile(.jsonl) output: %v", err)
	}
	if len(rounds) != 2 || rounds[0].Phase != "mst/contract" {
		t.Errorf("round-tripped %d rounds, first phase %q", len(rounds), rounds[0].Phase)
	}

	pf := filepath.Join(dir, "run.json")
	if err := WriteTraceFile(pf, sampleRounds()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	var pf2 struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &pf2); err != nil {
		t.Fatalf("non-.jsonl output is not trace-event JSON: %v", err)
	}
	if len(pf2.TraceEvents) == 0 {
		t.Error("Perfetto export has no traceEvents")
	}
	if strings.HasPrefix(string(data), `{"format":`) {
		t.Error("non-.jsonl path emitted the JSONL header")
	}
}

// The "-" convention must hit stdout and must not close it. "-" has no
// .jsonl suffix, so the extension rule renders trace-event JSON.
func TestWriteTraceFileStdout(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	werr := WriteTraceFile("-", sampleRounds())
	os.Stdout = old
	w.Close()
	if werr != nil {
		t.Fatalf("WriteTraceFile(-): %v", werr)
	}
	raw, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatalf("stdout stream is not trace-event JSON: %v\nstream:\n%s", err, raw)
	}
	if len(pf.TraceEvents) == 0 {
		t.Error("stdout export has no traceEvents")
	}
	// Stdout must survive the "close": a second write has to succeed.
	os.Stdout = w2Reopen(t)
	defer func() { os.Stdout = old }()
	if err := WriteTraceFile("-", sampleRounds()); err != nil {
		t.Fatalf("second WriteTraceFile(-) after the first close: %v", err)
	}
}

// w2Reopen hands the test a throwaway stdout target.
func w2Reopen(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestWriteMetricsFile(t *testing.T) {
	samples := []metrics.Sample{{Name: "cliflags_test_total", Kind: metrics.KindCounter, Value: 3}}

	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteMetricsFile(path, samples); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cliflags_test_total") {
		t.Errorf("snapshot JSON lost the counter: %s", data)
	}
}

// Unwritable targets must surface as errors, not silent drops.
func TestUnwritableTargets(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	if err := WriteMetricsFile(bad, nil); err == nil {
		t.Error("WriteMetricsFile to a missing directory returned nil")
	}
	if err := WriteTraceFile(bad+".jsonl", nil); err == nil {
		t.Error("WriteTraceFile to a missing directory returned nil")
	}
	o := &Obs{CPUProfile: bad}
	if _, err := o.StartProfiles(); err == nil {
		t.Error("StartProfiles with an unwritable -cpuprofile returned nil")
	}
}

func TestStartProfilesNoFlagsIsNoop(t *testing.T) {
	o := &Obs{}
	stop, err := o.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	o := &Obs{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := o.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.CPUProfile, o.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
