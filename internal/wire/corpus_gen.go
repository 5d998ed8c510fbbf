//go:build ignore

// corpus_gen regenerates the committed seed corpus of FuzzCodecRoundTrip:
//
//	go run ./internal/wire/corpus_gen.go
//
// The seeds cover every payload kind, multi-frame streams, and the two
// typed-error shapes (truncated, corrupt — an oversized plen is corrupt
// too, since each kind has one payload length), so a plain `go test`
// run replays all of them as regression inputs.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hetmpc/internal/wire"
)

func frame(m wire.Message) []byte {
	b, err := wire.AppendMessage(nil, &m)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func main() {
	seeds := [][]byte{
		frame(wire.Message{From: -1, To: 0, Kind: wire.KindNil}),
		frame(wire.Message{From: 0, To: 1, Words: 1, Kind: wire.KindInt64, I64: -7}),
		frame(wire.Message{From: 1, To: 2, Words: 1, Kind: wire.KindUint64, U64: 1 << 63}),
		frame(wire.Message{From: -1, To: 6, Words: 1, Kind: wire.KindRef, Ref: 12}),
		frame(wire.Message{From: -1, To: -1, Words: 2, Kind: wire.KindInt64, I64: -1 << 63}),
		frame(wire.Message{From: 3, To: 4, Words: 1<<32 - 1, Kind: wire.KindUint64, U64: ^uint64(0)}),
		frame(wire.Message{From: 4, To: 5, Words: 3, Kind: wire.KindRef, Ref: 1<<32 - 1}),
	}
	// A two-frame stream and its truncation.
	stream := append(frame(wire.Message{Kind: wire.KindInt64, I64: 42}),
		frame(wire.Message{Kind: wire.KindRef, Ref: 7})...)
	seeds = append(seeds, stream, stream[:len(stream)-3])
	// Corrupt shapes: bad magic, bad version, bad kind, plen/kind clash,
	// oversized plen.
	bad := func(off int, v byte) []byte {
		b := frame(wire.Message{From: 1, To: 2, Words: 1, Kind: wire.KindInt64, I64: 5})
		b[off] = v
		return b
	}
	seeds = append(seeds, bad(0, 0x00), bad(2, 99), bad(3, 250), bad(16, 3), bad(19, 0xFF))

	dir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzCodecRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, s := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed%d", i+1))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d seeds to %s\n", len(seeds), dir)
}
