//go:build unix

package wire

import (
	"fmt"
	"os"
	"syscall"
)

// Pipe is the socketpair transport: one AF_UNIX SOCK_STREAM pair per
// machine slot, so every byte genuinely crosses the kernel boundary even on
// one host. This is the single-host multi-process wire shape — the same
// file-descriptor I/O a forked worker would use — with the delivery
// endpoint living in-process.
type Pipe struct {
	links []Link
}

// NewPipe returns an unopened socketpair transport.
func NewPipe() *Pipe { return &Pipe{} }

// Name implements Transport.
func (*Pipe) Name() string { return "pipe" }

// Open implements Transport: one socketpair per slot.
func (p *Pipe) Open(slots int) ([]Link, error) {
	p.links = make([]Link, slots)
	for slot := 0; slot < slots; slot++ {
		fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("socketpair for %s: %w", LinkName(slot), err)
		}
		name := LinkName(slot)
		p.links[slot] = &link{
			name: name,
			w:    os.NewFile(uintptr(fds[0]), "wire-pipe-w-"+name),
			r:    os.NewFile(uintptr(fds[1]), "wire-pipe-r-"+name),
		}
	}
	return p.links, nil
}

// Close implements Transport.
func (p *Pipe) Close() error {
	err := closeLinks(p.links)
	p.links = nil
	return err
}
