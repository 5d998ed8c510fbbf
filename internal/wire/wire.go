// Package wire puts the simulator's messages on a real wire: a zero-alloc,
// length-prefixed binary codec for Exchange messages, checkpoints and graph
// shards (DESIGN.md §11), plus the pluggable Transport the mpc engine runs
// its deliver phase over.
//
// # Frame codec
//
// Every Exchange message crosses the wire as one frame:
//
//	offset  size  field
//	0       2     magic   (0xA817, little-endian)
//	2       1     version (currently 1)
//	3       1     payload kind
//	4       4     from    (int32; -1 = large machine)
//	8       4     to      (int32; -1 = large machine)
//	12      4     words   (uint32; the modeled message size)
//	16      4     plen    (uint32; payload byte length)
//	20      plen  payload
//
// All integers are little-endian, fixed-width; for a given Message value the
// encoding is canonical — decode∘encode is the identity on bytes, which the
// FuzzCodecRoundTrip target enforces. Truncated or corrupt input surfaces as
// the typed errors ErrTruncated / ErrCorrupt / ErrTooLarge, never a panic.
//
// The codec follows the WriteTo/ReadFrom shape of lattigo's utils/buffer:
// encoding appends to a caller-owned buffer (AppendMessage), decoding fills
// caller-owned Message structs (Decoder.ReadMessage) through one read buffer
// and per-kind arenas: one buffered read per chunk of the stream — whatever
// the reader holds, up to 64 KiB — with the frames parsed where they lie, so
// a stream of small frames costs read calls per chunk, not per frame, and
// the steady-state path performs zero allocations once buffer and arenas
// reach their high-water mark. What a Decoder has read ahead stays in its
// buffer: it may move to another reader only when Buffered() == 0.
//
// # Payload kinds
//
// The engine moves []uint64-ish payloads; the codec encodes those natively
// (KindInt64, KindUint64, KindInt64Slice, KindUint64Slice, KindBytes).
// Algorithm-local payloads — the ad-hoc generic structs the prims exchange —
// are not wire-encodable from outside their packages; they cross as KindRef:
// the frame carries a per-link sequence token and the payload value rides
// the engine's in-process handoff table. The frame header (and its bytes on
// the wire) are still real, so wire_bytes accounting stays meaningful, but a
// KindRef frame can only be resolved inside the sending process. True
// multi-host operation requires every payload to be wire-native; the codec
// and transports are built so that boundary is a payload audit, not a
// redesign. See DESIGN.md §11.
//
// # Transports
//
// A Transport opens one duplex byte link per destination machine. Delivery
// stays above the cost model: the engine computes the same plans, offsets
// and capacity checks regardless of transport, then either copies messages
// through shared memory (inproc — bit-identical to the pre-wire engine) or
// encodes them through the links (pipe — an AF_UNIX socketpair per machine;
// tcp — a loopback TCP connection per machine). Measured bytes land in
// Stats.WireBytes and per-round trace records, next to the modeled words.
package wire

import "errors"

// Frame geometry and limits.
const (
	// Magic is the frame magic (little-endian uint16 at offset 0).
	Magic uint16 = 0xA817
	// Version is the codec version stamped into every frame header.
	Version byte = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20
	// DefaultMaxPayload bounds the payload length a Decoder accepts before
	// allocating, so corrupt length prefixes cannot drive huge allocations.
	DefaultMaxPayload = 1 << 26 // 64 MiB
)

// Typed codec and transport errors. Decoding never panics: malformed input
// maps onto exactly one of these.
var (
	// ErrTruncated is returned when the input ends inside a frame header or
	// declared payload (the io.ErrUnexpectedEOF of the frame layer).
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrCorrupt is returned for structurally invalid frames: bad magic,
	// unknown version or kind, or a payload length that contradicts the kind
	// (e.g. a KindInt64 frame whose plen is not 8).
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrTooLarge is returned when a declared payload length exceeds the
	// decoder's MaxPayload bound.
	ErrTooLarge = errors.New("wire: frame payload exceeds limit")
	// ErrTransport is wrapped by every transport-layer failure the engine
	// surfaces — a link write/read failing mid-round, a peer dying, a
	// transport that cannot open its links. The wrapping error names the
	// link ("large", "small-3").
	ErrTransport = errors.New("wire: transport failure")
)

// Kind tags a frame's payload encoding.
type Kind byte

const (
	// KindNil is the nil payload (plen 0).
	KindNil Kind = iota
	// KindInt64 is one int64 (plen 8).
	KindInt64
	// KindUint64 is one uint64 (plen 8).
	KindUint64
	// KindInt64Slice is a []int64 (plen 8·len).
	KindInt64Slice
	// KindUint64Slice is a []uint64 (plen 8·len).
	KindUint64Slice
	// KindBytes is a raw []byte (plen len).
	KindBytes
	// KindRef is the in-process payload handoff: the frame carries a
	// per-link sequence token (plen 4) and the payload value itself rides
	// the engine's round-scoped reference table. See the package comment.
	KindRef

	kindCount // one past the last valid kind
)

// Message is one decoded (or to-be-encoded) Exchange message. Exactly one
// payload field is meaningful, selected by Kind; the union-of-fields shape
// (rather than an `any`) keeps native decode paths free of interface boxing
// so the steady-state stream costs zero allocations.
type Message struct {
	From  int32
	To    int32
	Words uint32
	Kind  Kind

	I64   int64    // KindInt64
	U64   uint64   // KindUint64
	I64s  []int64  // KindInt64Slice
	U64s  []uint64 // KindUint64Slice
	Bytes []byte   // KindBytes
	Ref   uint32   // KindRef: index into the sender's round reference table
}

// FromPayload classifies an engine payload (mpc.Msg.Data) into m's kind and
// payload fields. It reports false when the dynamic type is not
// wire-native — the caller must then assign a KindRef token and carry the
// value through its reference table. From/To/Words are left untouched.
func (m *Message) FromPayload(data any) bool {
	m.I64s, m.U64s, m.Bytes = nil, nil, nil
	switch v := data.(type) {
	case nil:
		m.Kind = KindNil
	case int64:
		m.Kind, m.I64 = KindInt64, v
	case uint64:
		m.Kind, m.U64 = KindUint64, v
	case []int64:
		m.Kind, m.I64s = KindInt64Slice, v
	case []uint64:
		m.Kind, m.U64s = KindUint64Slice, v
	case []byte:
		m.Kind, m.Bytes = KindBytes, v
	default:
		m.Kind = KindRef
		return false
	}
	return true
}

// Payload boxes the decoded payload back into the engine's `any` shape.
// KindRef returns nil — the caller resolves the reference table with m.Ref.
// Slice payloads are returned as decoded (for Decoder.ReadMessage they point
// into the decoder's arena and stay valid until its next Release).
func (m *Message) Payload() any {
	switch m.Kind {
	case KindNil, KindRef:
		return nil
	case KindInt64:
		return m.I64
	case KindUint64:
		return m.U64
	case KindInt64Slice:
		return m.I64s
	case KindUint64Slice:
		return m.U64s
	case KindBytes:
		return m.Bytes
	}
	return nil
}
