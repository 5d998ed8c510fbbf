package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzCodecRoundTrip fuzzes the frame codec with raw byte streams
// (committed seed corpus under testdata/fuzz): decoding must never panic;
// every failure must be one of the typed errors (ErrTruncated, ErrCorrupt);
// and because the encoding is canonical, any input that
// decodes must re-encode to exactly the bytes consumed. The streaming
// decoder must agree with the byte-slice decoder frame for frame — and it
// reads the stream through a reader chopped at sizes taken from the input
// itself (1 to 256 bytes per Read), so the fuzzer also steers where its
// buffered reads cut the frames.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := AppendMessage(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	two, _ := AppendMessage(nil, &Message{Kind: KindInt64, I64: 1})
	two, _ = AppendMessage(two, &Message{Kind: KindRef, Ref: 2})
	f.Add(two)
	f.Add(two[:len(two)-1]) // truncated tail frame
	f.Add([]byte{0x18, 0xA8, 1, 0})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		sizes := []int{1}
		for _, b := range data {
			sizes = append(sizes, 1+int(b))
		}
		sr := &chunkReader{r: bytes.NewReader(data), sizes: sizes}
		var dec Decoder
		rest := data
		for frame := 0; ; frame++ {
			var m, sm Message
			next, err := DecodeMessage(rest, &m)
			serr := dec.ReadMessage(sr, &sm)
			if err != nil {
				// The stream decoder must refuse the same frame with the same
				// typed error, except that a clean empty tail is its io.EOF.
				want := err
				switch {
				case len(rest) == 0:
					want = io.EOF
				case errors.Is(err, ErrTruncated):
					want = ErrTruncated
				case errors.Is(err, ErrCorrupt):
					want = ErrCorrupt
				default:
					t.Fatalf("frame %d: untyped decode error %v", frame, err)
				}
				if !errors.Is(serr, want) {
					t.Fatalf("frame %d: slice decoder rejected (%v) but stream decoder returned %v, want %v", frame, err, serr, want)
				}
				return
			}
			if serr != nil {
				t.Fatalf("frame %d: stream decoder rejected (%v) what the slice decoder accepted", frame, serr)
			}
			if !payloadEqual(&m, &sm) {
				t.Fatalf("frame %d: decoders disagree: %+v vs %+v", frame, m, sm)
			}
			consumed := rest[:len(rest)-len(next)]
			re, err := AppendMessage(nil, &m)
			if err != nil {
				t.Fatalf("frame %d: re-encode of a decoded message failed: %v", frame, err)
			}
			if !bytes.Equal(re, consumed) {
				t.Fatalf("frame %d: decode∘encode not identity:\n in: %x\nout: %x", frame, consumed, re)
			}
			rest = next
			if len(rest) == 0 {
				return
			}
		}
	})
}
