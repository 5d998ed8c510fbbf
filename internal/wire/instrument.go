package wire

import (
	"time"

	"hetmpc/internal/metrics"
)

// instrumentedLink wraps a Link so every Read and Write publishes one call,
// the moved bytes and the elapsed wall-clock nanoseconds. The counters are
// atomic, so the engine's drain goroutine and its serial writer can share
// one registry safely.
type instrumentedLink struct {
	Link
	reads      *metrics.Counter
	writes     *metrics.Counter
	readBytes  *metrics.Counter
	writeBytes *metrics.Counter
	readNs     *metrics.Counter
	writeNs    *metrics.Counter
}

// InstrumentLink wraps l with per-link call, byte and time counters
// registered under the link's name (wire_link_reads_total, _writes_total,
// _read_bytes_total, _write_bytes_total, _read_ns_total, _write_ns_total;
// label link=<Name>). A nil registry or nil link returns l unchanged — the
// zero-overhead path stays untouched.
//
// The call counters are the wire's syscall count on the socket transports
// (one Read or Write is one read(2) or write(2)): set against
// wire_link_frames_total they say whether the link is paid per frame or per
// chunk.
//
// The write-byte counters carry the engine's conservation law: on a
// successful run the sum over links of wire_link_write_bytes_total equals
// Stats.WireBytes exactly (every encoded frame buffer is written through
// its destination link exactly once).
func InstrumentLink(l Link, reg *metrics.Registry) Link {
	if reg == nil || l == nil {
		return l
	}
	name := l.Name()
	return &instrumentedLink{
		Link:       l,
		reads:      reg.Counter("wire_link_reads_total", "link", name),
		writes:     reg.Counter("wire_link_writes_total", "link", name),
		readBytes:  reg.Counter("wire_link_read_bytes_total", "link", name),
		writeBytes: reg.Counter("wire_link_write_bytes_total", "link", name),
		readNs:     reg.Counter("wire_link_read_ns_total", "link", name),
		writeNs:    reg.Counter("wire_link_write_ns_total", "link", name),
	}
}

func (il *instrumentedLink) Read(p []byte) (int, error) {
	t0 := time.Now() //hetlint:nondet wall-clock metering feeds the wire_link_read_ns observability counter only; Stats and traces use model time
	n, err := il.Link.Read(p)
	il.readNs.Add(time.Since(t0).Nanoseconds()) //hetlint:nondet wall-clock metering feeds the observability counters only
	il.reads.Add(1)
	il.readBytes.Add(int64(n))
	return n, err
}

func (il *instrumentedLink) Write(p []byte) (int, error) {
	t0 := time.Now() //hetlint:nondet wall-clock metering feeds the wire_link_write_ns observability counter only; Stats and traces use model time
	n, err := il.Link.Write(p)
	il.writeNs.Add(time.Since(t0).Nanoseconds()) //hetlint:nondet wall-clock metering feeds the observability counters only
	il.writes.Add(1)
	il.writeBytes.Add(int64(n))
	return n, err
}
