//go:build !unix

package wire

import "net"

// On platforms without AF_UNIX socketpairs the pipe transport degrades to
// net.Pipe: still a duplex byte stream through the runtime's synchronous
// pipe, preserving the transport contract (framing, error propagation,
// wire_bytes accounting) without kernel file descriptors.

// Pipe is the single-host byte-stream transport (see pipe.go for the unix
// socketpair implementation this stands in for).
type Pipe struct {
	links []Link
}

// NewPipe returns an unopened pipe transport.
func NewPipe() *Pipe { return &Pipe{} }

// Name implements Transport.
func (*Pipe) Name() string { return "pipe" }

// Open implements Transport: one synchronous duplex pipe per slot.
func (p *Pipe) Open(slots int) ([]Link, error) {
	p.links = make([]Link, slots)
	for slot := 0; slot < slots; slot++ {
		w, r := net.Pipe()
		p.links[slot] = &link{name: LinkName(slot), r: r, w: w}
	}
	return p.links, nil
}

// Close implements Transport.
func (p *Pipe) Close() error {
	err := closeLinks(p.links)
	p.links = nil
	return err
}
