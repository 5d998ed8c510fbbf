package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// sampleMessages covers every payload kind at the extremes of its fields,
// including header-only frames with and without a word charge.
func sampleMessages() []Message {
	return []Message{
		{From: -1, To: 0, Words: 0, Kind: KindNil},
		{From: 4, To: 5, Words: 3, Kind: KindNil},
		{From: 0, To: -1, Words: 1, Kind: KindInt64, I64: -7},
		{From: 3, To: 4, Words: 2, Kind: KindInt64, I64: 1<<63 - 1},
		{From: 4, To: 3, Words: 1, Kind: KindInt64, I64: -1 << 63},
		{From: 1, To: 2, Words: 1, Kind: KindUint64, U64: 1 << 63},
		{From: 2, To: 1, Words: 1, Kind: KindUint64, U64: 0},
		{From: 5, To: 6, Words: 1<<32 - 1, Kind: KindUint64, U64: ^uint64(0)},
		{From: -1, To: 9, Words: 9, Kind: KindRef, Ref: 41},
		{From: 9, To: -1, Words: 3, Kind: KindRef, Ref: 0},
		{From: 7, To: 8, Words: 1, Kind: KindRef, Ref: 1<<32 - 1},
	}
}

// payloadEqual compares the kind-selected payload of two messages (the
// other union fields are scratch and intentionally not compared).
func payloadEqual(a, b *Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.Words != b.Words {
		return false
	}
	switch a.Kind {
	case KindInt64:
		return a.I64 == b.I64
	case KindUint64:
		return a.U64 == b.U64
	case KindRef:
		return a.Ref == b.Ref
	}
	return true
}

// TestMessageRoundTrip checks encode→decode identity for every kind, on
// both the byte-slice and the streaming decoder, and that re-encoding the
// decoded message reproduces the original bytes (canonical encoding).
func TestMessageRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		buf, err := AppendMessage(nil, &m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		var got Message
		rest, err := DecodeMessage(buf, &got)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("msg %d: %d undecoded bytes", i, len(rest))
		}
		if !payloadEqual(&m, &got) {
			t.Errorf("msg %d: decode mismatch: %+v vs %+v", i, m, got)
		}
		re, err := AppendMessage(nil, &got)
		if err != nil || !bytes.Equal(re, buf) {
			t.Errorf("msg %d: re-encode not canonical (err %v)", i, err)
		}

		var dec Decoder
		var sgot Message
		if err := dec.ReadMessage(bytes.NewReader(buf), &sgot); err != nil {
			t.Fatalf("msg %d: stream decode: %v", i, err)
		}
		if !payloadEqual(&m, &sgot) {
			t.Errorf("msg %d: stream decode mismatch: %+v vs %+v", i, m, sgot)
		}
	}
}

// TestFromPayloadRoundTrip checks the engine-payload classification:
// wire-native values survive FromPayload→Payload unchanged, non-native
// values — Go slices among them — are flagged for the by-ref path.
func TestFromPayloadRoundTrip(t *testing.T) {
	native := []any{nil, int64(-3), uint64(9)}
	var m Message
	for i, p := range native {
		if !m.FromPayload(p) {
			t.Errorf("payload %d (%T) should be wire-native", i, p)
		}
		if !reflect.DeepEqual(m.Payload(), p) {
			t.Errorf("payload %d: round-trip %#v -> %#v", i, p, m.Payload())
		}
	}
	type local struct{ X int }
	for _, p := range []any{local{1}, "a string", 7, []int{1}, []int64{1, 2}, []uint64{3}, []byte("x")} {
		if m.FromPayload(p) {
			t.Errorf("payload %T wrongly classified wire-native", p)
		}
		if m.Kind != KindRef {
			t.Errorf("payload %T: kind %d, want KindRef", p, m.Kind)
		}
	}
}

// TestDecodeTypedErrors drives malformed frames through both decoders:
// every failure must be one of the typed codec errors, never a panic and
// never a silent success.
func TestDecodeTypedErrors(t *testing.T) {
	good, err := AppendMessage(nil, &Message{From: 1, To: 2, Words: 3, Kind: KindInt64, I64: 45})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int, b byte) []byte {
		c := bytes.Clone(good)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"cut header", good[:HeaderSize-1], ErrTruncated},
		{"cut payload", good[:HeaderSize+3], ErrTruncated},
		{"bad magic", corrupt(0, 0x00), ErrCorrupt},
		{"bad version", corrupt(2, 9), ErrCorrupt},
		{"bad kind", corrupt(3, byte(kindCount)), ErrCorrupt},
		{"plen vs kind", corrupt(16, 7), ErrCorrupt}, // scalar payload not 8 bytes
		{"huge plen", corrupt(19, 0xFF), ErrCorrupt},
	}
	for _, tc := range cases {
		var m Message
		if _, err := DecodeMessage(tc.in, &m); !errors.Is(err, tc.want) {
			t.Errorf("DecodeMessage(%s): err %v, want %v", tc.name, err, tc.want)
		}
		var dec Decoder
		if err := dec.ReadMessage(bytes.NewReader(tc.in), &m); !errors.Is(err, tc.want) {
			// An empty stream is a clean EOF at a frame boundary.
			if !(tc.name == "empty" && err == io.EOF) {
				t.Errorf("ReadMessage(%s): err %v, want %v", tc.name, err, tc.want)
			}
		}
	}
	for _, e := range []error{ErrTruncated, ErrCorrupt} {
		if !strings.HasPrefix(e.Error(), "wire:") {
			t.Errorf("%q lacks the wire: prefix", e)
		}
	}
}

// chunkReader yields at most its per-call quota, cycling through chunks —
// the adversarial io.Reader for framing tests: 1-byte dribbles, prime-sized
// chunks, jumbo reads.
type chunkReader struct {
	r     io.Reader
	sizes []int
	i     int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	n := c.sizes[c.i%len(c.sizes)]
	c.i++
	c.reads++
	if n > len(p) {
		n = len(p)
	}
	return c.r.Read(p[:n])
}

// randomMessages builds n deterministic pseudo-random messages across all
// payload kinds.
func randomMessages(n int, seed uint64) []Message {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	msgs := make([]Message, n)
	for i := range msgs {
		m := &msgs[i]
		m.From = int32(rng.IntN(64)) - 1
		m.To = int32(rng.IntN(64)) - 1
		m.Words = uint32(rng.IntN(1 << 16))
		switch rng.IntN(4) {
		case 0:
			m.Kind = KindNil
		case 1:
			m.Kind, m.I64 = KindInt64, int64(rng.Uint64())
		case 2:
			m.Kind, m.U64 = KindUint64, rng.Uint64()
		case 3:
			m.Kind, m.Ref = KindRef, uint32(rng.IntN(1000))
		}
	}
	return msgs
}

// TestStreamSurvivesChunkBoundaries is the framing property test: a stream
// of random messages decodes identically no matter how the reader chops it —
// 1-byte dribbles, prime-sized chunks, jumbo reads, the iotest readers
// (including data and io.EOF returned by one Read). The decoder keeps what
// it read ahead between frames, so the stream is built to wrap its buffer
// more than once and, under the jumbo readers, to have frames straddle the
// buffer's end (compaction).
func TestStreamSurvivesChunkBoundaries(t *testing.T) {
	msgs := randomMessages(8000, 42)
	var stream []byte
	var err error
	frameLen := make([]int, len(msgs))
	for i := range msgs {
		before := len(stream)
		if stream, err = AppendMessage(stream, &msgs[i]); err != nil {
			t.Fatal(err)
		}
		frameLen[i] = len(stream) - before
	}
	if len(stream) < 2*readChunk {
		t.Fatalf("stream of %d bytes does not wrap the %d-byte buffer", len(stream), readChunk)
	}
	chunked := func(sizes ...int) func(io.Reader) io.Reader {
		return func(r io.Reader) io.Reader { return &chunkReader{r: r, sizes: sizes} }
	}
	readers := []struct {
		name     string
		wrap     func(io.Reader) io.Reader
		straddle bool // Reads fill the buffer, so frames must straddle its end
	}{
		{"1", chunked(1), false},
		{"3,7,1", chunked(3, 7, 1), false},
		{"13", chunked(13), false},
		{"1<<20", chunked(1 << 20), true},
		{"1,1<<20,5", chunked(1, 1<<20, 5), true},
		{"OneByteReader", iotest.OneByteReader, false},
		{"HalfReader", iotest.HalfReader, true},
		{"DataErrReader", iotest.DataErrReader, true},
	}
	for _, rd := range readers {
		r := rd.wrap(bytes.NewReader(stream))
		var dec Decoder
		var m Message
		straddled := 0
		for i := range msgs {
			if b := dec.Buffered(); dec.r > 0 && b > 0 && b < frameLen[i] {
				straddled++ // a partial frame away from the buffer's front: fill must move it
			}
			if err := dec.ReadMessage(r, &m); err != nil {
				t.Fatalf("%s: msg %d: %v", rd.name, i, err)
			}
			if !payloadEqual(&msgs[i], &m) {
				t.Fatalf("%s: msg %d mismatch", rd.name, i)
			}
		}
		if err := dec.ReadMessage(r, &m); err != io.EOF {
			t.Fatalf("%s: want io.EOF at stream end, got %v", rd.name, err)
		}
		if b := dec.Buffered(); b != 0 {
			t.Errorf("%s: %d bytes buffered after the last frame", rd.name, b)
		}
		if rd.straddle && straddled == 0 {
			t.Errorf("%s: no frame straddled the buffer's end; the compaction path went untested", rd.name)
		}
	}
}

// TestDecoderDropReleasesBuffer: Drop surrenders the read buffer together
// with whatever it still held, and the decoder is usable again afterwards.
func TestDecoderDropReleasesBuffer(t *testing.T) {
	two, _ := AppendMessage(nil, &Message{Kind: KindInt64, I64: 1})
	two, _ = AppendMessage(two, &Message{Kind: KindInt64, I64: 2})
	var dec Decoder
	var m Message
	if err := dec.ReadMessage(bytes.NewReader(two), &m); err != nil {
		t.Fatal(err)
	}
	if dec.Buffered() != len(two)/2 {
		t.Fatalf("Buffered() = %d after one of two frames, want %d", dec.Buffered(), len(two)/2)
	}
	dec.Drop()
	if dec.Buffered() != 0 || dec.buf != nil {
		t.Fatalf("Drop left %d buffered bytes and a %d-byte buffer", dec.Buffered(), cap(dec.buf))
	}
	if err := dec.ReadMessage(bytes.NewReader(two), &m); err != nil || m.I64 != 1 {
		t.Fatalf("decode after Drop: %+v, %v", m, err)
	}
}

// TestDecoderZeroSteadyStateAllocs pins the zero-alloc claim: after one
// warm-up pass allocates the read buffer, decoding the full framed stream
// allocates nothing.
func TestDecoderZeroSteadyStateAllocs(t *testing.T) {
	msgs := randomMessages(300, 7)
	var stream []byte
	var err error
	for i := range msgs {
		if stream, err = AppendMessage(stream, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := &Decoder{}
	r := bytes.NewReader(stream)
	var m Message
	pass := func() {
		r.Reset(stream)
		for i := 0; i < len(msgs); i++ {
			if err := dec.ReadMessage(r, &m); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm-up: the read buffer is allocated once
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("steady-state decode allocates %.1f per stream, want 0", allocs)
	}

	// Encoding into a warm buffer is allocation-free too.
	buf := make([]byte, 0, len(stream))
	if allocs := testing.AllocsPerRun(10, func() {
		buf = buf[:0]
		for i := range msgs {
			buf, _ = AppendMessage(buf, &msgs[i])
		}
	}); allocs != 0 {
		t.Errorf("steady-state encode allocates %.1f per stream, want 0", allocs)
	}
}
