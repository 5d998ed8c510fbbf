package wire

import (
	"cmp"
	"fmt"
	"net"
)

// TCP is the sockets transport: one TCP connection per machine slot through
// a loopback listener. The engine writes frames into the dialed side and the
// delivery goroutine reads them from the accepted side; the frame stream is
// byte-identical to what would cross a real network.
type TCP struct {
	ln    net.Listener
	links []Link
}

// tcpAddr is the listen address: an ephemeral loopback port.
const tcpAddr = "127.0.0.1:0"

// NewTCP returns an unopened loopback TCP transport.
func NewTCP() *TCP { return &TCP{} }

// Name implements Transport.
func (*TCP) Name() string { return "tcp" }

// Open implements Transport: listens once, then dials and accepts one
// connection pair per slot. Dials are sequential, so the k-th accepted
// connection pairs with the k-th dial.
func (t *TCP) Open(slots int) ([]Link, error) {
	ln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", tcpAddr, err)
	}
	t.ln = ln
	t.links = make([]Link, slots)
	for slot := 0; slot < slots; slot++ {
		w, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("dial for %s: %w", LinkName(slot), err)
		}
		r, err := ln.Accept()
		if err != nil {
			w.Close()
			t.Close()
			return nil, fmt.Errorf("accept for %s: %w", LinkName(slot), err)
		}
		t.links[slot] = &link{name: LinkName(slot), r: r, w: w}
	}
	return t.links, nil
}

// Close implements Transport.
func (t *TCP) Close() error {
	var lerr error
	if t.ln != nil {
		lerr = t.ln.Close()
		t.ln = nil
	}
	err := cmp.Or(lerr, closeLinks(t.links))
	t.links = nil
	return err
}
