package wire

import (
	"bytes"
	"testing"
)

// sockBuf is what one Read of the benchmark's reader returns at most: the
// default send buffer of an AF_UNIX stream socket on Linux
// (net.core.wmem_default), i.e. as much of a round as a link can hold.
const sockBuf = 208 << 10

// BenchmarkDecoderStream is the codec rung of the layer ladder for the
// receive side: one op decodes a round-shaped stream — 4096 frames in the
// mix runs send, KindRef but for one KindInt64 scalar in forty (97.2 % refs,
// 2.5 % int64s over all experiments on the pipe transport) — from a reader
// that hands over at most one socket buffer per Read. ns/op over the frame
// count is the per-frame decode constant without a kernel under it;
// BenchmarkExchangeWire (internal/mpc) is the same path with one.
func BenchmarkDecoderStream(b *testing.B) {
	const frames = 4096
	var stream []byte
	var err error
	for i := 0; i < frames; i++ {
		m := Message{From: int32(i % 512), To: int32(i % 7), Words: 3, Kind: KindRef, Ref: uint32(i)}
		if i%40 == 39 {
			m.Words, m.Kind, m.I64 = 1, KindInt64, int64(i)
		}
		if stream, err = AppendMessage(stream, &m); err != nil {
			b.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	cr := &chunkReader{r: src, sizes: []int{sockBuf}}
	var dec Decoder
	var m Message
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(stream)
		for f := 0; f < frames; f++ {
			if err := dec.ReadMessage(cr, &m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
