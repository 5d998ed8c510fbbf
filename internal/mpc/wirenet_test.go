package mpc

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hetmpc/internal/wire"
)

// transports returns the three delivery paths under test, fresh per call (a
// transport belongs to one cluster).
func transports() map[string]func() wire.Transport {
	return map[string]func() wire.Transport{
		"inproc": func() wire.Transport { return nil },
		"pipe":   func() wire.Transport { return wire.NewPipe() },
		"tcp":    func() wire.Transport { return wire.NewTCP() },
	}
}

// TestWireDeliveryMatchesInproc runs the heavy mixed round over every
// transport: the delivered inboxes and the modeled Stats must be
// bit-identical to the shared-memory path, and the two real transports must
// put the identical byte count on the wire.
func TestWireDeliveryMatchesInproc(t *testing.T) {
	type result struct {
		ins     [][]Msg
		inLarge []Msg
		st      Stats
	}
	results := map[string]result{}
	for name, mk := range transports() {
		c := newTest(t, Config{N: 1024, M: 8192, Seed: 5, Transport: mk()})
		defer c.Close()
		outs, outLarge := buildHeavyRound(c)
		ins, inLarge, err := c.Exchange(outs, outLarge)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = result{ins, inLarge, c.Stats()}
	}
	base := results["inproc"]
	if base.st.WireBytes != 0 {
		t.Fatalf("inproc put %d bytes on a wire it does not have", base.st.WireBytes)
	}
	for _, name := range []string{"pipe", "tcp"} {
		r := results[name]
		if !reflect.DeepEqual(r.ins, base.ins) || !reflect.DeepEqual(r.inLarge, base.inLarge) {
			t.Errorf("%s: delivered inboxes differ from inproc", name)
		}
		if r.st.WireBytes <= 0 {
			t.Errorf("%s: no bytes measured on the wire", name)
		}
		modeled := r.st
		modeled.WireBytes = 0
		if modeled != base.st {
			t.Errorf("%s: modeled stats diverged: %+v vs %+v", name, modeled, base.st)
		}
	}
	if results["pipe"].st.WireBytes != results["tcp"].st.WireBytes {
		t.Errorf("frame streams differ: pipe %d bytes, tcp %d bytes",
			results["pipe"].st.WireBytes, results["tcp"].st.WireBytes)
	}
}

// TestWireNativePayloadKinds pushes every wire-native payload kind (and
// by-ref payloads: Go slices and a local struct) through a real transport
// and checks the delivered values.
func TestWireNativePayloadKinds(t *testing.T) {
	type local struct{ A, B int } // not wire-native: crosses by ref, as the slices do
	payloads := []any{
		nil,
		int64(-7),
		uint64(1) << 63,
		[]int64{1, -2, 3},
		[]uint64{4, 5},
		[]byte("frame me"),
		local{A: 1, B: 2},
	}
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Transport: wire.NewPipe()})
	defer c.Close()
	outs := make([][]Msg, c.K())
	for i, p := range payloads {
		outs[0] = append(outs[0], Msg{To: 1, Words: 1 + i, Data: p})
	}
	ins, _, err := c.Exchange(outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins[1]) != len(payloads) {
		t.Fatalf("delivered %d messages, want %d", len(ins[1]), len(payloads))
	}
	for i, m := range ins[1] {
		if m.From != 0 || m.To != 1 || m.Words != 1+i {
			t.Errorf("msg %d header = {From:%d To:%d Words:%d}", i, m.From, m.To, m.Words)
		}
		if !reflect.DeepEqual(m.Data, payloads[i]) {
			t.Errorf("msg %d payload = %#v, want %#v", i, m.Data, payloads[i])
		}
	}
	if got := c.Stats().WireBytes; got != c.WireBytesOf(1) {
		t.Errorf("WireBytes %d but link small-1 carried %d (the only active link)", got, c.WireBytesOf(1))
	}
}

// TestWireTransportErrorNamesLink is the silent-hang regression: after a
// peer's link dies mid-run, the next Exchange must return — within the
// watchdog window, never hanging — a typed wire.ErrTransport naming the
// dead link, and every Exchange after that must fail fast with the same
// error.
func TestWireTransportErrorNamesLink(t *testing.T) {
	for _, name := range []string{"pipe", "tcp"} {
		t.Run(name, func(t *testing.T) {
			mk := transports()[name]
			c := newTest(t, Config{N: 256, M: 1024, Seed: 3, Transport: mk()})
			defer c.Close()
			round := func() error {
				outs := make([][]Msg, c.K())
				outs[0] = []Msg{{To: 2, Words: 1, Data: int64(1)}}
				outs[2] = []Msg{{To: 0, Words: 1, Data: int64(2)}}
				_, _, err := c.Exchange(outs, nil)
				return err
			}
			for r := 0; r < 3; r++ {
				if err := round(); err != nil {
					t.Fatalf("healthy round %d: %v", r, err)
				}
			}
			if err := c.KillLink(2); err != nil {
				t.Fatalf("KillLink: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- round() }()
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Exchange hung after the peer died (silent-hang regression)")
			}
			if !errors.Is(err, wire.ErrTransport) {
				t.Fatalf("err = %v, want wrapped wire.ErrTransport", err)
			}
			if !strings.Contains(err.Error(), `"small-2"`) {
				t.Errorf("error does not name the dead link: %v", err)
			}
			if err2 := round(); !errors.Is(err2, wire.ErrTransport) {
				t.Errorf("round after failure = %v, want fail-fast wire.ErrTransport", err2)
			}
		})
	}
}

// fakeTransport is a Transport whose Open returns a scripted result and
// which counts its Close calls.
type fakeTransport struct {
	links  []wire.Link
	err    error
	closed int
}

func (f *fakeTransport) Name() string                  { return "fake" }
func (f *fakeTransport) Open(int) ([]wire.Link, error) { return f.links, f.err }
func (f *fakeTransport) Close() error                  { f.closed++; return nil }

// TestNewOpensTransport pins the one place a transport is opened: New. An
// Open error and a wrong link count are New's error, wrapping
// wire.ErrTransport, and New closes the transport before returning it.
func TestNewOpensTransport(t *testing.T) {
	for name, f := range map[string]*fakeTransport{
		"open error":       {err: errors.New("no sockets left")},
		"wrong link count": {links: make([]wire.Link, 1)},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{N: 64, M: 256, Seed: 1, Transport: f})
			if c != nil || !errors.Is(err, wire.ErrTransport) {
				t.Fatalf("New = %v, %v; want nil and a wrapped wire.ErrTransport", c, err)
			}
			if !strings.Contains(err.Error(), `"fake"`) {
				t.Errorf("error does not name the transport: %v", err)
			}
			if f.closed != 1 {
				t.Errorf("transport closed %d times, want 1", f.closed)
			}
		})
	}
}

// TestInprocTransportIsSharedMemory: the explicit in-process transport opens
// no links, so the cluster takes the shared-memory path a nil transport
// selects: no bytes are measured on any link.
func TestInprocTransportIsSharedMemory(t *testing.T) {
	c := newTest(t, Config{N: 64, M: 256, Seed: 1, Transport: wire.Inproc{}})
	defer c.Close()
	if _, _, err := c.Exchange(ringRound(c, 2), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.TransportName(); got != "inproc" {
		t.Errorf("TransportName = %q, want inproc", got)
	}
	for i := Large; i < c.K(); i++ {
		if got := c.WireBytesOf(i); got != 0 {
			t.Errorf("WireBytesOf(%d) = %d under inproc, want 0", i, got)
		}
	}
	if got := c.Stats().WireBytes; got != 0 {
		t.Errorf("Stats.WireBytes = %d under inproc, want 0", got)
	}
}

// trailingTransport is a Pipe whose link of slot `slot` appends one stray
// byte to every Write — a peer that frames its round correctly and then
// keeps talking.
type trailingTransport struct {
	*wire.Pipe
	slot int
}

type trailingLink struct{ wire.Link }

func (l trailingLink) Write(p []byte) (int, error) {
	if _, err := l.Link.Write(append(append([]byte(nil), p...), 0xEE)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (tt trailingTransport) Open(slots int) ([]wire.Link, error) {
	links, err := tt.Pipe.Open(slots)
	if err == nil {
		links[tt.slot] = trailingLink{links[tt.slot]}
	}
	return links, err
}

// TestWireTrailingBytesFailTheRound: bytes left on a link after the round's
// last frame fail that round — a typed wire.ErrTransport naming transport,
// link and round, caused by wire.ErrCorrupt — instead of being parsed as the
// next round's first header and blamed on it. The bad link's leftovers must
// not leak into the links drained after it: every other slot of the failing
// round still decodes its own stream, so the error names only the bad link.
func TestWireTrailingBytesFailTheRound(t *testing.T) {
	c := newTest(t, Config{N: 256, M: 1024, Seed: 3, Transport: trailingTransport{wire.NewPipe(), 1 + 2}})
	defer c.Close()
	outs := make([][]Msg, c.K())
	for i := range outs {
		outs[i] = []Msg{{To: (i + 1) % c.K(), Words: 1, Data: int64(i)}}
	}
	_, _, err := c.Exchange(outs, nil)
	if !errors.Is(err, wire.ErrTransport) {
		t.Fatalf("round with a trailing byte on small-2: err = %v, want wrapped wire.ErrTransport", err)
	}
	for _, want := range []string{`"pipe"`, `"small-2"`, "mid-round 1", wire.ErrCorrupt.Error(), "1 trailing bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	for slot, rerr := range c.wn.rerr {
		if (rerr != nil) != (slot == 1+2) {
			t.Errorf("slot %d: drain error %v; only small-2 carried a stray byte", slot, rerr)
		}
	}
	if _, _, err2 := c.Exchange(outs, nil); !errors.Is(err2, wire.ErrTransport) {
		t.Errorf("round after failure = %v, want fail-fast wire.ErrTransport", err2)
	}
}

// TestWireReadsPerRound pins the receive side's syscall count, not its
// clock: the drain reads a link in chunks, so a round that delivers many
// small frames to a link costs it a handful of Reads — at most one per
// eight frames, loose enough for a stream socket that hands one Write over
// in pieces (a Read per frame header and one per payload would be two per
// frame) — and the send side stays at one Write per link per round with
// traffic.
func TestWireReadsPerRound(t *testing.T) {
	for _, name := range []string{"pipe", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr := &countingTransport{Transport: transports()[name]()}
			c := newTest(t, Config{N: 1024, M: 8192, Seed: 5, Transport: tr})
			defer c.Close()
			frames := make([]int, c.K()+1)
			exchange := func(outs [][]Msg) {
				t.Helper()
				ins, inLarge, err := c.Exchange(outs, nil)
				if err != nil {
					t.Fatal(err)
				}
				frames[0] += len(inLarge)
				for i, in := range ins {
					frames[1+i] += len(in)
				}
			}
			// Every machine sends one small frame to each of small-0..3 and
			// to the large machine: K ≥ 64 frames per receiving link.
			receivers := []int{Large, 0, 1, 2, 3}
			outs := make([][]Msg, c.K())
			for i := range outs {
				for _, to := range receivers {
					outs[i] = append(outs[i], Msg{To: to, Words: 1, Data: int64(i)})
				}
			}
			if c.K() < 64 {
				t.Fatalf("K = %d: fewer than 64 frames per link", c.K())
			}
			const rounds = 3
			for r := 0; r < rounds; r++ {
				exchange(outs)
			}
			// One more round with traffic for small-0 only.
			only0 := make([][]Msg, c.K())
			for i := range only0 {
				only0[i] = []Msg{{To: 0, Words: 1, Data: int64(i)}}
			}
			exchange(only0)
			for slot := 0; slot <= c.K(); slot++ {
				link := wire.LinkName(slot)
				reads, writes := tr.reads[slot], tr.writes[slot]
				wantWrites, wantFrames := 0, 0
				switch {
				case slot == machineSlot(0):
					wantWrites, wantFrames = rounds+1, (rounds+1)*c.K()
				case slot <= machineSlot(3):
					wantWrites, wantFrames = rounds, rounds*c.K()
				}
				if frames[slot] != wantFrames || writes != wantWrites {
					t.Errorf("%s: %d frames in %d writes, want %d in %d (one Write per round with traffic)",
						link, frames[slot], writes, wantFrames, wantWrites)
				}
				if reads > frames[slot]/8 {
					t.Errorf("%s: %d reads for %d frames, want at most one per 8 frames", link, reads, frames[slot])
				}
			}
		})
	}
}

// countingTransport counts the Read and Write calls on each of its
// transport's links: one read(2) or write(2) each on the socket transports.
// Reads run on the round's drain goroutine and writes on the caller; both
// are read only after Exchange has joined the drain.
type countingTransport struct {
	wire.Transport
	reads, writes []int // per slot
}

func (t *countingTransport) Open(slots int) ([]wire.Link, error) {
	links, err := t.Transport.Open(slots)
	if err != nil || links == nil {
		return links, err
	}
	t.reads, t.writes = make([]int, slots), make([]int, slots)
	for i, l := range links {
		links[i] = countingLink{l, &t.reads[i], &t.writes[i]}
	}
	return links, nil
}

type countingLink struct {
	wire.Link
	reads, writes *int
}

func (l countingLink) Read(p []byte) (int, error) {
	*l.reads++
	return l.Link.Read(p)
}

func (l countingLink) Write(p []byte) (int, error) {
	*l.writes++
	return l.Link.Write(p)
}
