package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hetmpc/internal/arena"
)

// payloadLen returns the payload byte length a Message encodes to, or an
// error when the message cannot be framed (slice too long for the uint32
// length prefix).
//
//hetlint:zeroalloc encode hot path; pinned by TestDecoderZeroSteadyStateAllocs and the mpc AllocsPerRun suite
func payloadLen(m *Message) (int, error) {
	switch m.Kind {
	case KindNil:
		return 0, nil
	case KindInt64, KindUint64:
		return 8, nil
	case KindInt64Slice:
		if len(m.I64s) > math.MaxUint32/8 {
			return 0, fmt.Errorf("%w: %d int64s", ErrTooLarge, len(m.I64s))
		}
		return 8 * len(m.I64s), nil
	case KindUint64Slice:
		if len(m.U64s) > math.MaxUint32/8 {
			return 0, fmt.Errorf("%w: %d uint64s", ErrTooLarge, len(m.U64s))
		}
		return 8 * len(m.U64s), nil
	case KindBytes:
		if len(m.Bytes) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(m.Bytes))
		}
		return len(m.Bytes), nil
	case KindRef:
		return 4, nil
	}
	return 0, fmt.Errorf("%w: kind %d", ErrCorrupt, m.Kind)
}

// AppendMessage appends m's frame to dst and returns the extended slice. It
// allocates only when dst needs to grow, so a caller reusing its buffer
// round over round encodes with zero steady-state allocations.
//
//hetlint:zeroalloc encode hot path; pinned by TestDecoderZeroSteadyStateAllocs and the mpc AllocsPerRun suite
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	plen, err := payloadLen(m)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(m.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
	dst = binary.LittleEndian.AppendUint32(dst, m.Words)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	switch m.Kind {
	case KindInt64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.I64))
	case KindUint64:
		dst = binary.LittleEndian.AppendUint64(dst, m.U64)
	case KindInt64Slice:
		dst = appendI64s(dst, m.I64s)
	case KindUint64Slice:
		dst = appendU64s(dst, m.U64s)
	case KindBytes:
		dst = append(dst, m.Bytes...)
	case KindRef:
		dst = binary.LittleEndian.AppendUint32(dst, m.Ref)
	}
	return dst, nil
}

// grow extends dst by n bytes in one step, reallocating only past the
// buffer's high-water mark, and returns the extended slice plus the fresh
// n-byte window. One growth check per slice payload instead of one per
// element is what lets the word loops below run unrolled with the bounds
// checks hoisted.
//
//hetlint:zeroalloc encode hot path; growth is the sanctioned cap()-guarded idiom (pinned by TestDecoderZeroSteadyStateAllocs)
func grow(dst []byte, n int) (buf, window []byte) {
	need := len(dst) + n
	if need > cap(dst) {
		next := make([]byte, need, max(2*cap(dst), need))
		copy(next, dst)
		dst = next
	} else {
		dst = dst[:need]
	}
	return dst, dst[need-n : need]
}

// appendI64s appends the little-endian encoding of src, 4-wide: each
// iteration loads a fixed 32-byte window so the compiler drops the
// per-store bounds checks. The byte stream is identical to the one-word
// AppendUint64 loop it replaces (canonical encoding is pinned by the codec
// fuzz corpus).
//
//hetlint:zeroalloc encode hot path; pinned by TestDecoderZeroSteadyStateAllocs and the mpc AllocsPerRun suite
func appendI64s(dst []byte, src []int64) []byte {
	dst, buf := grow(dst, 8*len(src))
	i := 0
	for ; i+4 <= len(src); i += 4 {
		b := buf[8*i : 8*i+32]
		binary.LittleEndian.PutUint64(b[0:8], uint64(src[i]))
		binary.LittleEndian.PutUint64(b[8:16], uint64(src[i+1]))
		binary.LittleEndian.PutUint64(b[16:24], uint64(src[i+2]))
		binary.LittleEndian.PutUint64(b[24:32], uint64(src[i+3]))
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint64(buf[8*i:8*i+8], uint64(src[i]))
	}
	return dst
}

// appendU64s is appendI64s for uint64 payloads.
//
//hetlint:zeroalloc encode hot path; pinned by TestDecoderZeroSteadyStateAllocs and the mpc AllocsPerRun suite
func appendU64s(dst []byte, src []uint64) []byte {
	dst, buf := grow(dst, 8*len(src))
	i := 0
	for ; i+4 <= len(src); i += 4 {
		b := buf[8*i : 8*i+32]
		binary.LittleEndian.PutUint64(b[0:8], src[i])
		binary.LittleEndian.PutUint64(b[8:16], src[i+1])
		binary.LittleEndian.PutUint64(b[16:24], src[i+2])
		binary.LittleEndian.PutUint64(b[24:32], src[i+3])
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint64(buf[8*i:8*i+8], src[i])
	}
	return dst
}

// decodeI64s fills dst from body's little-endian words, 4-wide with the
// same fixed-window bounds-check-elimination shape as appendI64s.
// len(body) must be 8*len(dst).
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func decodeI64s(dst []int64, body []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		b := body[8*i : 8*i+32]
		dst[i] = int64(binary.LittleEndian.Uint64(b[0:8]))
		dst[i+1] = int64(binary.LittleEndian.Uint64(b[8:16]))
		dst[i+2] = int64(binary.LittleEndian.Uint64(b[16:24]))
		dst[i+3] = int64(binary.LittleEndian.Uint64(b[24:32]))
	}
	for ; i < len(dst); i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(body[8*i : 8*i+8]))
	}
}

// decodeU64s is decodeI64s for uint64 payloads.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func decodeU64s(dst []uint64, body []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		b := body[8*i : 8*i+32]
		dst[i] = binary.LittleEndian.Uint64(b[0:8])
		dst[i+1] = binary.LittleEndian.Uint64(b[8:16])
		dst[i+2] = binary.LittleEndian.Uint64(b[16:24])
		dst[i+3] = binary.LittleEndian.Uint64(b[24:32])
	}
	for ; i < len(dst); i++ {
		dst[i] = binary.LittleEndian.Uint64(body[8*i : 8*i+8])
	}
}

// parseHeader validates a 20-byte header and returns kind and payload
// length. maxPayload <= 0 means DefaultMaxPayload.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func parseHeader(h []byte, m *Message, maxPayload int) (plen int, err error) {
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
	m.Kind = kind
	m.From = int32(binary.LittleEndian.Uint32(h[4:8]))
	m.To = int32(binary.LittleEndian.Uint32(h[8:12]))
	m.Words = binary.LittleEndian.Uint32(h[12:16])
	plen32 := binary.LittleEndian.Uint32(h[16:20])
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if uint64(plen32) > uint64(maxPayload) {
		return 0, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, plen32, maxPayload)
	}
	plen = int(plen32)
	switch kind {
	case KindNil:
		if plen != 0 {
			return 0, fmt.Errorf("%w: nil payload with plen %d", ErrCorrupt, plen)
		}
	case KindInt64, KindUint64:
		if plen != 8 {
			return 0, fmt.Errorf("%w: scalar payload with plen %d", ErrCorrupt, plen)
		}
	case KindInt64Slice, KindUint64Slice:
		if plen%8 != 0 {
			return 0, fmt.Errorf("%w: word-slice payload with plen %d", ErrCorrupt, plen)
		}
	case KindRef:
		if plen != 4 {
			return 0, fmt.Errorf("%w: ref payload with plen %d", ErrCorrupt, plen)
		}
	}
	return plen, nil
}

// decodePayload fills m's payload field from body (length already validated
// against the kind). It is the one frame-payload decoder behind both byte
// sources: a Decoder passes its arenas and every slice payload is copied
// into a fresh arena window; DecodeMessage passes nil arenas and slice
// payloads are decoded into m's existing capacity when it suffices. Either
// way nothing in m aliases body afterwards.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs (arena growth is the sanctioned cap()-guarded idiom)
func decodePayload(m *Message, body []byte, i64s *arena.Arena[int64], u64s *arena.Arena[uint64], bytes *arena.Arena[byte]) {
	switch m.Kind {
	case KindInt64:
		m.I64 = int64(binary.LittleEndian.Uint64(body))
	case KindUint64:
		m.U64 = binary.LittleEndian.Uint64(body)
	case KindInt64Slice:
		m.I64s = payloadDst(i64s, m.I64s, len(body)/8)
		decodeI64s(m.I64s, body)
	case KindUint64Slice:
		m.U64s = payloadDst(u64s, m.U64s, len(body)/8)
		decodeU64s(m.U64s, body)
	case KindBytes:
		m.Bytes = payloadDst(bytes, m.Bytes, len(body))
		copy(m.Bytes, body)
	case KindRef:
		m.Ref = binary.LittleEndian.Uint32(body)
	}
}

// payloadDst returns the n-element destination of a slice payload: a fresh
// window of arena a, or — a nil — own resliced, reallocated only when its
// capacity is short.
//
//hetlint:zeroalloc decode hot path; growth is the sanctioned cap()-guarded idiom (pinned by TestDecoderZeroSteadyStateAllocs)
func payloadDst[T any](a *arena.Arena[T], own []T, n int) []T {
	if a != nil {
		return a.AllocUninit(n)
	}
	if cap(own) < n {
		own = make([]T, n)
	}
	return own[:n]
}

// DecodeMessage decodes one frame from the front of b into m and returns
// the remaining bytes. Slice payloads are decoded into m's existing
// capacity when it suffices (so a reused Message decodes without
// allocating). A short b returns ErrTruncated.
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func DecodeMessage(b []byte, m *Message) (rest []byte, err error) {
	if len(b) < HeaderSize {
		return b, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderSize)
	}
	plen, err := parseHeader(b[:HeaderSize], m, 0)
	if err != nil {
		return b, err
	}
	if len(b) < HeaderSize+plen {
		return b, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncated, len(b)-HeaderSize, plen)
	}
	decodePayload(m, b[HeaderSize:HeaderSize+plen], nil, nil, nil)
	return b[HeaderSize+plen:], nil
}

// readChunk is the floor of a Decoder's read buffer: one Read asks the link
// for up to this much, so a round of small frames costs one read call per
// 64 KiB (or per write the link hands over), not two per frame.
const readChunk = 64 << 10

// A Decoder reads frames from an io.Reader through one read buffer: each
// Read takes whatever the reader holds (up to the buffer's free space),
// frames are parsed where they lie, and slice payloads are copied once,
// from the buffer into per-kind slab arenas (internal/arena). The buffer
// starts at 64 KiB and grows only for a frame that does not fit, bounded by
// MaxPayload. After buffer and arenas reach their high-water mark,
// ReadMessage performs zero allocations per frame.
//
// Because bytes read ahead of the current frame stay in the buffer, a
// Decoder belongs to one stream at a time: it may move to another reader
// only when Buffered() == 0 (in the engine: at every slot boundary, since a
// link holds exactly one round's frames).
//
// Decoded slice payloads alias the arenas and stay valid until the next
// Release — in the engine, one Release per round, matching the synchronous
// round contract that inbox payloads are consumed before the next Exchange.
type Decoder struct {
	// MaxPayload bounds accepted payload lengths; 0 means DefaultMaxPayload.
	MaxPayload int

	buf   []byte // read buffer; buf[r:w] is read but not yet decoded
	r, w  int
	i64s  arena.Arena[int64]
	u64s  arena.Arena[uint64]
	bytes arena.Arena[byte]
}

// Buffered returns the number of bytes read from the stream but not yet
// decoded: 0 exactly when the decoder stands at the end of everything it
// has read.
func (d *Decoder) Buffered() int { return d.w - d.r }

// Release resets the arenas. Every slice payload decoded since the previous
// Release becomes invalid; capacity is retained. Buffered bytes are stream
// position, not payload, and are kept.
func (d *Decoder) Release() {
	d.i64s.Reset()
	d.u64s.Reset()
	d.bytes.Reset()
}

// Drop releases the arenas' slabs and the read buffer to the garbage
// collector — Release plus surrendering the high-water capacity and any
// buffered bytes. Clusters call it through ResetStats so a mid-run reset
// returns the decode scratch instead of leaking it into the next run, and
// after a failed link so its unread bytes are not decoded as the next
// link's.
func (d *Decoder) Drop() {
	d.i64s.Drop()
	d.u64s.Drop()
	d.bytes.Drop()
	d.buf, d.r, d.w = nil, 0, 0
}

// fill reads from r until at least need undecoded bytes are buffered. A
// partial frame is first moved to the front of the buffer — at most once
// per frame, since only a decoded frame advances d.r — so every Read is
// offered all the free space there is.
//
//hetlint:zeroalloc decode hot path; buffer growth is the sanctioned cap()-guarded idiom (pinned by TestDecoderZeroSteadyStateAllocs)
func (d *Decoder) fill(r io.Reader, need int) error {
	for d.Buffered() < need {
		if d.r > 0 {
			d.w = copy(d.buf, d.buf[d.r:d.w])
			d.r = 0
		}
		if need > cap(d.buf) {
			next := make([]byte, max(need, readChunk))
			copy(next, d.buf[:d.w])
			d.buf = next
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
// is returned as io.EOF; EOF inside a frame is ErrTruncated. Slice payloads
// point into the decoder's arenas (valid until Release).
//
//hetlint:zeroalloc decode hot path; pinned by TestDecoderZeroSteadyStateAllocs
func (d *Decoder) ReadMessage(r io.Reader, m *Message) error {
	if err := d.fill(r, HeaderSize); err != nil {
		if err == io.EOF && d.Buffered() == 0 {
			return io.EOF
		}
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	plen, err := parseHeader(d.buf[d.r:d.r+HeaderSize], m, d.MaxPayload)
	if err != nil {
		return err
	}
	if err := d.fill(r, HeaderSize+plen); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	frame := d.buf[d.r : d.r+HeaderSize+plen]
	d.r += len(frame)
	decodePayload(m, frame[HeaderSize:], &d.i64s, &d.u64s, &d.bytes)
	return nil
}
