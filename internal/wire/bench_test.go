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
// receive side: one op decodes a round-shaped stream — 4096 frames, seven in
// eight of them KindRef as on the MST cell, the rest small word slices —
// from a reader that hands over at most one socket buffer per Read. ns/op
// over the frame count is the per-frame decode constant without a kernel
// under it; BenchmarkExchangeWire (internal/mpc) is the same path with one.
func BenchmarkDecoderStream(b *testing.B) {
	const frames = 4096
	var stream []byte
	var err error
	words := make([]uint64, 6)
	for i := 0; i < frames; i++ {
		m := Message{From: int32(i % 512), To: int32(i % 7), Words: 3, Kind: KindRef, Ref: uint32(i)}
		if i%8 == 7 {
			m.Kind, m.U64s = KindUint64Slice, words
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
		dec.Release()
		for f := 0; f < frames; f++ {
			if err := dec.ReadMessage(cr, &m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
