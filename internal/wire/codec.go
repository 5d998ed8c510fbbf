package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// AppendMessage appends m's frame to dst and returns the extended slice. It
// allocates only when dst needs to grow, so a caller reusing its buffer
// round over round encodes with zero steady-state allocations.
//
//hetlint:zeroalloc encode hot path; pinned by TestDecoderZeroSteadyStateAllocs and the mpc AllocsPerRun suite
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if m.Kind >= kindCount {
		return dst, fmt.Errorf("%w: kind %d", ErrCorrupt, m.Kind)
	}
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(m.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
	dst = binary.LittleEndian.AppendUint32(dst, m.Words)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen[m.Kind]))
	switch m.Kind {
	case KindInt64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.I64))
	case KindUint64:
		dst = binary.LittleEndian.AppendUint64(dst, m.U64)
	case KindRef:
		dst = binary.LittleEndian.AppendUint32(dst, m.Ref)
	}
	return dst, nil
}

// parseHeader validates a 20-byte header and returns the payload length,
// which must be exactly the one its kind has.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func parseHeader(h []byte, m *Message) (plen int, err error) {
	if binary.LittleEndian.Uint16(h[0:2]) != Magic {
		return 0, fmt.Errorf("%w: bad magic 0x%04x", ErrCorrupt, binary.LittleEndian.Uint16(h[0:2]))
	}
	if h[2] != Version {
		return 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, h[2])
	}
	kind := Kind(h[3])
	if kind >= kindCount {
		return 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	plen = payloadLen[kind]
	if got := binary.LittleEndian.Uint32(h[16:20]); got != uint32(plen) {
		return 0, fmt.Errorf("%w: kind %d with plen %d, want %d", ErrCorrupt, kind, got, plen)
	}
	m.Kind = kind
	m.From = int32(binary.LittleEndian.Uint32(h[4:8]))
	m.To = int32(binary.LittleEndian.Uint32(h[8:12]))
	m.Words = binary.LittleEndian.Uint32(h[12:16])
	return plen, nil
}

// decodePayload fills m's payload field from body (length already validated
// against the kind). It is the one frame-payload decoder behind both byte
// sources.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func decodePayload(m *Message, body []byte) {
	switch m.Kind {
	case KindInt64:
		m.I64 = int64(binary.LittleEndian.Uint64(body))
	case KindUint64:
		m.U64 = binary.LittleEndian.Uint64(body)
	case KindRef:
		m.Ref = binary.LittleEndian.Uint32(body)
	}
}

// DecodeMessage decodes one frame from the front of b into m and returns
// the remaining bytes. A short b returns ErrTruncated.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func DecodeMessage(b []byte, m *Message) (rest []byte, err error) {
	if len(b) < HeaderSize {
		return b, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderSize)
	}
	plen, err := parseHeader(b[:HeaderSize], m)
	if err != nil {
		return b, err
	}
	if len(b) < HeaderSize+plen {
		return b, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncated, len(b)-HeaderSize, plen)
	}
	decodePayload(m, b[HeaderSize:HeaderSize+plen])
	return b[HeaderSize+plen:], nil
}

// readChunk is the size of a Decoder's read buffer: one Read asks the link
// for up to this much, so a round of small frames costs one read call per
// 64 KiB (or per write the link hands over), not two per frame. Every frame
// is far smaller, so the buffer never grows.
const readChunk = 64 << 10

// A Decoder reads frames from an io.Reader through one read buffer: each
// Read takes whatever the reader holds (up to the buffer's free space) and
// frames are parsed where they lie. The buffer is allocated at the first
// read; after that, ReadMessage performs zero allocations per frame.
//
// Because bytes read ahead of the current frame stay in the buffer, a
// Decoder belongs to one stream at a time: it may move to another reader
// only when Buffered() == 0 (in the engine: at every slot boundary, since a
// link holds exactly one round's frames).
type Decoder struct {
	buf  []byte // read buffer; buf[r:w] is read but not yet decoded
	r, w int
}

// Buffered returns the number of bytes read from the stream but not yet
// decoded: 0 exactly when the decoder stands at the end of everything it
// has read.
func (d *Decoder) Buffered() int { return d.w - d.r }

// Drop discards the read buffer and any bytes it still holds. Clusters call
// it after a failed link so its unread bytes are not decoded as the next
// link's.
func (d *Decoder) Drop() {
	d.buf, d.r, d.w = nil, 0, 0
}

// fill reads from r until at least need undecoded bytes are buffered. A
// partial frame is first moved to the front of the buffer — at most once
// per frame, since only a decoded frame advances d.r — so every Read is
// offered all the free space there is.
//
//hetlint:zeroalloc decode hot path; the one buffer allocation is the sanctioned cap()-guarded idiom (pinned by TestDecoderZeroSteadyStateAllocs)
func (d *Decoder) fill(r io.Reader, need int) error {
	for d.Buffered() < need {
		if d.r > 0 {
			d.w = copy(d.buf, d.buf[d.r:d.w])
			d.r = 0
		}
		if cap(d.buf) == 0 {
			d.buf = make([]byte, readChunk)
		}
		n, err := r.Read(d.buf[d.w:])
		d.w += n
		if err != nil && d.Buffered() < need {
			return err
		}
	}
	return nil
}

// ReadMessage decodes the next frame of r's stream into m, reading from r
// only when the frame is not already buffered. io.EOF at a frame boundary
// is returned as io.EOF; EOF inside a frame is ErrTruncated.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func (d *Decoder) ReadMessage(r io.Reader, m *Message) error {
	if err := d.fill(r, HeaderSize); err != nil {
		if err == io.EOF && d.Buffered() == 0 {
			return io.EOF
		}
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	plen, err := parseHeader(d.buf[d.r:d.r+HeaderSize], m)
	if err != nil {
		return err
	}
	if err := d.fill(r, HeaderSize+plen); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	frame := d.buf[d.r : d.r+HeaderSize+plen]
	d.r += len(frame)
	decodePayload(m, frame[HeaderSize:])
	return nil
}
