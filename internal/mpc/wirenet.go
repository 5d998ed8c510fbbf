package mpc

import (
	"fmt"
	"sync"

	"hetmpc/internal/wire"
)

// wireNet runs the Exchange deliver phase over a wire.Transport: instead of
// copying Msg structs through shared memory, every message is encoded into
// a per-destination frame buffer, written through the destination's link,
// and decoded back into the flat inbox on the other side.
//
// The delivered inbox is bit-identical to the shared-memory path because
// both sides follow the same deterministic order: frames are encoded
// serially sender-major (large machine first, then small senders ascending,
// submission order within a sender) — exactly the order the count pass
// sized the inbox windows in — and the round's drain decodes each
// destination's stream sequentially into flat[slotBase+0..n). No offsets
// cross the wire; the stream order is the offset.
//
// Payloads that are not wire-native (algorithm-local structs and slices;
// see the wire package comment) cross as KindRef frames whose payload
// values ride the per-destination refs table, built fully before the drain
// goroutine is spawned (the spawn is the happens-before edge; file
// descriptors provide none).
type wireNet struct {
	tr    wire.Transport
	links []wire.Link

	bufs    [][]byte       // per destination slot, encoded frames of the round
	refs    [][]any        // per destination slot, KindRef payload table
	dec     wire.Decoder   // the drain's read buffer, shared by all links
	drained sync.WaitGroup // the round's drain goroutine
	werr    []error        // per slot, writer error of the round
	rerr    []error        // per slot, reader error of the round
	bytes   []int64        // per slot, cumulative bytes written
	broken  error          // sticky: first transport failure; later rounds fail fast
}

// openTransport opens tr's links, one per machine slot. A nil tr, or one
// whose Open returns no links, leaves c.wn nil: the shared-memory path. A
// failed Open, or a wrong link count, closes tr and returns an error
// wrapping wire.ErrTransport.
func (c *Cluster) openTransport(tr wire.Transport) error {
	if tr == nil {
		return nil
	}
	slots := c.k + 1
	links, err := tr.Open(slots)
	if err == nil && links != nil && len(links) != slots {
		err = fmt.Errorf("opened %d links, want %d", len(links), slots)
	}
	if err != nil {
		tr.Close()
		return fmt.Errorf("mpc: transport %q failed to open: %v: %w", tr.Name(), err, wire.ErrTransport)
	}
	if links == nil {
		return nil
	}
	c.wn = &wireNet{
		tr:    tr,
		links: links,
		bufs:  make([][]byte, slots),
		refs:  make([][]any, slots),
		werr:  make([]error, slots),
		rerr:  make([]error, slots),
		bytes: make([]int64, slots),
	}
	return nil
}

// fail closes the link of slot and records err once. Closing is the
// anti-hang mechanism: it unblocks whichever side of the link is still
// inside a Read or Write, so a mid-round failure always surfaces as an
// error instead of a deadlocked round.
func (wn *wireNet) fail(slot int, errs []error, err error) {
	if errs[slot] == nil {
		errs[slot] = err
	}
	wn.links[slot].Close()
}

// deliverWire is the transport-backed pass 2 of Exchange: encode, write,
// read back, place. It returns the round's bytes on the wire. On failure
// the first error in slot order is returned, wrapped in wire.ErrTransport
// and naming the link; the net is left broken so later rounds fail fast.
func (c *Cluster) deliverWire(flat []Msg) (int64, error) {
	wn := c.wn
	sc := c.exch

	// Encode, serially, in the deterministic delivery order. The refs
	// tables must be complete before the drain goroutine starts.
	for slot := range wn.bufs {
		wn.bufs[slot] = wn.bufs[slot][:0]
		wn.refs[slot] = wn.refs[slot][:0]
		wn.werr[slot], wn.rerr[slot] = nil, nil
	}
	if err := wn.encodeRound(sc.senders); err != nil {
		return 0, err
	}

	// One drain goroutine, started before the first Write (a Write into a
	// link blocks once its kernel buffer fills, so the drain must already be
	// running). It walks the receiving slots in ascending order — the order
	// the writer below writes them — which cannot deadlock for any K: the
	// drain leaves slot d only after decoding all of d's frames, that is
	// after the writer handed the link every byte of d, so the writer is
	// never blocked on a slot the drain has left; and a writer blocked on
	// slot s has completed every Write before s, so the drain reaches s
	// without waiting and empties the buffer the Write is blocked on. A
	// failed link is closed (wn.fail), which unblocks both of its sides.
	wn.drained.Add(1)
	go wn.drain(sc, flat)

	// Writes: one Write per destination link, sequential (determinism of
	// the byte accounting; the drain reads concurrently).
	var roundBytes int64
	for slot := range wn.links {
		buf := wn.bufs[slot]
		if len(buf) == 0 {
			continue
		}
		if _, err := wn.links[slot].Write(buf); err != nil {
			wn.fail(slot, wn.werr, err)
			continue
		}
		roundBytes += int64(len(buf))
		wn.bytes[slot] += int64(len(buf))
	}
	wn.drained.Wait()

	for slot := range wn.links {
		err := wn.werr[slot]
		if err == nil {
			err = wn.rerr[slot]
		}
		if err == nil {
			continue
		}
		wn.broken = fmt.Errorf("mpc: transport %q link %q failed mid-round %d: %v: %w",
			wn.tr.Name(), wn.links[slot].Name(), c.stats.Rounds, err, wire.ErrTransport)
		return roundBytes, wn.broken
	}
	return roundBytes, nil
}

// encodeRound frames every sender's messages into the per-slot write buffers
// in the deterministic delivery order, recording out-of-line payloads in the
// per-slot ref tables. The ref tables must be complete before the drain
// goroutine starts, so this runs serially before it.
//
//hetlint:zeroalloc steady-state encode path: buffers and ref tables are reused round over round (pinned by TestWireRoundAllocsIndependentOfK)
func (wn *wireNet) encodeRound(senders []sender) error {
	var fm wire.Message
	for _, p := range senders {
		for j := range p.msgs {
			m := &p.msgs[j]
			slot := machineSlot(m.To)
			fm.From = int32(p.from)
			fm.To = int32(m.To)
			fm.Words = uint32(m.Words)
			if !fm.FromPayload(m.Data) {
				fm.Ref = uint32(len(wn.refs[slot]))
				wn.refs[slot] = append(wn.refs[slot], m.Data)
			}
			var err error
			if wn.bufs[slot], err = wire.AppendMessage(wn.bufs[slot], &fm); err != nil {
				wn.broken = fmt.Errorf("mpc: transport %q link %q: encode: %v: %w",
					wn.tr.Name(), wn.links[slot].Name(), err, wire.ErrTransport)
				return wn.broken
			}
		}
	}
	return nil
}

// drain is the body of the round's one reader goroutine: it decodes every
// receiving slot's stream, in ascending slot order, through the one decoder.
// The writer starts round r+1 only after the drain of round r joined, so a
// link holds exactly one round's bytes, the decoder's buffer is empty at
// every slot boundary, and one buffer serves all K+1 links. A slot that
// fails is published through wn.fail and the decoder dropped, so the failed
// link's buffered bytes are never decoded as the next link's (the net is
// broken from here on; the drain still visits the remaining slots so the
// writer is never left blocked).
func (wn *wireNet) drain(sc *exchScratch, flat []Msg) {
	defer wn.drained.Done()
	for slot := range wn.links {
		n := sc.recvCount[slot]
		if n == 0 {
			continue
		}
		if err := wn.readInto(slot, n, sc.slotBase[slot], flat); err != nil {
			wn.fail(slot, wn.rerr, err)
			wn.dec.Drop()
		}
	}
}

// readInto decodes slot's n frames of the round from its link into
// flat[base:base+n], resolving ref frames against the slot's ref table.
// The link must hold nothing after the n-th frame: leftover bytes would
// otherwise be parsed as the next round's first header and blamed on it.
//
//hetlint:zeroalloc steady-state decode path: the decoder's buffer absorbs the stream (pinned by TestWireRoundAllocsIndependentOfK)
func (wn *wireNet) readInto(slot, n, base int, flat []Msg) error {
	link := wn.links[slot]
	var m wire.Message
	for i := 0; i < n; i++ {
		if err := wn.dec.ReadMessage(link, &m); err != nil {
			return err
		}
		data := m.Payload()
		if m.Kind == wire.KindRef {
			if int(m.Ref) >= len(wn.refs[slot]) {
				return fmt.Errorf("%w: ref %d of %d", wire.ErrCorrupt, m.Ref, len(wn.refs[slot]))
			}
			data = wn.refs[slot][m.Ref]
		}
		flat[base+i] = Msg{From: int(m.From), To: int(m.To), Words: int(m.Words), Data: data}
	}
	if b := wn.dec.Buffered(); b != 0 {
		return fmt.Errorf("%w: %d trailing bytes", wire.ErrCorrupt, b)
	}
	return nil
}

// TransportName returns the transport spec name ("inproc" for the
// shared-memory path).
func (c *Cluster) TransportName() string {
	if c.wn == nil {
		return "inproc"
	}
	return c.wn.tr.Name()
}

// WireBytesOf returns the cumulative bytes written to machine id's link
// (Large or a small-machine index); 0 under the shared-memory path.
func (c *Cluster) WireBytesOf(id int) int64 {
	if c.wn == nil {
		return 0
	}
	return c.wn.bytes[machineSlot(id)]
}

// KillLink closes machine id's transport link mid-run — the fault hook the
// conformance suite uses to simulate a peer dying. The next delivering
// Exchange must surface a wire.ErrTransport naming the link rather than
// hanging. No-op under the shared-memory path.
func (c *Cluster) KillLink(id int) error {
	if c.wn == nil {
		return nil
	}
	return c.wn.links[machineSlot(id)].Close()
}

// Close releases the cluster's transport resources. Safe on untransported
// clusters and safe to call more than once. The cluster must not Exchange
// after Close.
func (c *Cluster) Close() error {
	if c.wn == nil {
		return nil
	}
	return c.wn.tr.Close()
}
