package wire

import (
	"cmp"
	"fmt"
	"io"
	"strings"
)

// A Link is one duplex byte channel between the coordinating process and a
// destination machine's delivery endpoint. Writes push encoded frames
// toward the machine's inbox; reads pull them back out on the receiving
// side. Close unblocks any peer still reading or writing (the engine closes
// a failed link so a mid-round transport error surfaces instead of
// hanging).
type Link interface {
	io.Reader
	io.Writer
	io.Closer
	// Name identifies the link in errors and stats: "large" for the large
	// machine's link, "small-3" for small machine 3.
	Name() string
}

// link is the one Link type of the Pipe and TCP transports: the engine
// writes encoded frames into w and the delivery goroutine reads them back
// from r — the two ends of a socketpair, a net.Pipe or a loopback TCP
// connection.
type link struct {
	name string
	r    io.ReadCloser
	w    io.WriteCloser
}

func (l *link) Name() string                { return l.name }
func (l *link) Read(p []byte) (int, error)  { return l.r.Read(p) }
func (l *link) Write(p []byte) (int, error) { return l.w.Write(p) }

// Close closes both ends, the writing end first, and returns the first
// error.
func (l *link) Close() error { return cmp.Or(l.w.Close(), l.r.Close()) }

// closeLinks closes every opened link (a failed Open leaves nil entries)
// and returns the first error.
func closeLinks(links []Link) error {
	var first error
	for _, l := range links {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// A Transport opens the per-machine links the Exchange deliver phase runs
// over. Implementations must be usable for exactly one Cluster: mpc.New
// calls Open once, after every other Config check, and Close either at
// Cluster.Close or, when Open fails, before New returns the error.
//
// A nil Transport — or one whose Open returns a nil slice — selects the
// in-process shared-memory path: delivery copies message structs directly
// into the inbox, bit-identical to the pre-wire engine, and wire_bytes
// stays 0. Such a transport holds nothing, so the cluster never closes it.
type Transport interface {
	// Name reports the spec name ("inproc", "pipe", "tcp").
	Name() string
	// Open returns one link per machine slot (slot 0 = large machine,
	// slot 1+i = small machine i), or nil to select the shared-memory
	// path. Errors are wrapped in ErrTransport by the engine.
	Open(slots int) ([]Link, error)
	// Close releases every resource the transport holds. Safe to call
	// more than once and before Open.
	Close() error
}

// LinkName returns the canonical link name for a machine slot
// (0 = "large", 1+i = "small-i").
func LinkName(slot int) string {
	if slot == 0 {
		return "large"
	}
	return fmt.Sprintf("small-%d", slot-1)
}

// Inproc is the explicit in-process transport: the same shared-memory
// delivery a nil Config.Transport selects. It exists so "-transport inproc"
// and transport sweeps can name the baseline.
type Inproc struct{}

// Name implements Transport.
func (Inproc) Name() string { return "inproc" }

// Open implements Transport; a nil link slice selects the memcpy path.
func (Inproc) Open(int) ([]Link, error) { return nil, nil }

// Close implements Transport.
func (Inproc) Close() error { return nil }

// Parse resolves a -transport spec: "" or "inproc" select the shared-memory
// path (nil Transport), "pipe" a socketpair per machine, "tcp" a loopback
// TCP connection per machine.
func Parse(spec string) (Transport, error) {
	switch strings.TrimSpace(spec) {
	case "", "inproc":
		return nil, nil
	case "pipe":
		return NewPipe(), nil
	case "tcp":
		return NewTCP(), nil
	}
	return nil, fmt.Errorf("unknown transport %q (want inproc, pipe or tcp)", spec)
}
