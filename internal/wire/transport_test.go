package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"hetmpc/internal/graph"
)

// TestParse covers the -transport spec grammar.
func TestParse(t *testing.T) {
	for _, spec := range []string{"", "inproc", " inproc "} {
		tr, err := Parse(spec)
		if err != nil || tr != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil transport", spec, tr, err)
		}
	}
	if tr, err := Parse("pipe"); err != nil || tr.Name() != "pipe" {
		t.Errorf("Parse(pipe) = %v, %v", tr, err)
	}
	if tr, err := Parse("tcp"); err != nil || tr.Name() != "tcp" {
		t.Errorf("Parse(tcp) = %v, %v", tr, err)
	}
	if _, err := Parse("carrier-pigeon"); err == nil {
		t.Error("Parse accepted an unknown transport")
	}
}

// TestLinkNames pins the link naming convention errors rely on.
func TestLinkNames(t *testing.T) {
	if LinkName(0) != "large" || LinkName(1) != "small-0" || LinkName(5) != "small-4" {
		t.Errorf("LinkName convention drifted: %q %q %q", LinkName(0), LinkName(1), LinkName(5))
	}
}

// TestTransportLinks drives raw bytes through every real transport's links:
// per-slot naming, write→read delivery, independence of links, and error
// (not hang) after Close.
func TestTransportLinks(t *testing.T) {
	for _, mk := range []func() Transport{func() Transport { return NewPipe() }, func() Transport { return NewTCP() }} {
		tr := mk()
		t.Run(tr.Name(), func(t *testing.T) {
			defer tr.Close()
			links, err := tr.Open(4)
			if err != nil {
				t.Fatal(err)
			}
			if len(links) != 4 {
				t.Fatalf("opened %d links, want 4", len(links))
			}
			for slot, l := range links {
				if l.Name() != LinkName(slot) {
					t.Errorf("slot %d named %q, want %q", slot, l.Name(), LinkName(slot))
				}
				msg := []byte(l.Name() + " payload")
				done := make(chan error, 1)
				go func() {
					_, werr := l.Write(msg)
					done <- werr
				}()
				got := make([]byte, len(msg))
				if _, err := io.ReadFull(l, got); err != nil {
					t.Fatalf("%s: read: %v", l.Name(), err)
				}
				if err := <-done; err != nil {
					t.Fatalf("%s: write: %v", l.Name(), err)
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("%s: delivered %q, want %q", l.Name(), got, msg)
				}
			}
			// A closed link must error on both ends, never block.
			if err := links[1].Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := links[1].Write([]byte("x")); err == nil {
				t.Error("write to a closed link succeeded")
			}
			if _, err := links[1].Read(make([]byte, 1)); err == nil {
				t.Error("read from a closed link succeeded")
			}
			// Other links are unaffected.
			go links[2].Write([]byte("ok"))
			got := make([]byte, 2)
			if _, err := io.ReadFull(links[2], got); err != nil || string(got) != "ok" {
				t.Errorf("sibling link broken after close: %q, %v", got, err)
			}
		})
	}
}

// TestShardBlockRoundTrip checks the graph-shard block codec, including the
// chunked-reader path and sniffing against the text format.
func TestShardBlockRoundTrip(t *testing.T) {
	g := graph.GNMWeighted(100, 300, 9)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())

	got, err := ReadGraph(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || got.Weighted != g.Weighted || len(got.Edges) != len(g.Edges) {
		t.Fatalf("graph shape changed: %d/%d/%d vs %d/%d/%d",
			got.N, len(got.Edges), boolInt(got.Weighted), g.N, len(g.Edges), boolInt(g.Weighted))
	}
	for i, e := range g.Edges {
		if got.Edges[i] != e {
			t.Fatalf("edge %d: %v vs %v", i, got.Edges[i], e)
		}
	}

	// Dribbled reads must still frame correctly.
	var s Shard
	if _, err := s.ReadFrom(&chunkReader{r: bytes.NewReader(stream), sizes: []int{1, 3}}); err != nil {
		t.Fatalf("chunked shard read: %v", err)
	}
	if int(s.N) != g.N || len(s.Edges) != len(g.Edges) || s.Offset != 0 {
		t.Fatal("chunked shard read mismatch")
	}

	// A mid-graph shard keeps its addressing.
	part := Shard{N: 100, Offset: 17, Weighted: true, Edges: g.Edges[17:40]}
	var pb bytes.Buffer
	if _, err := part.WriteTo(&pb); err != nil {
		t.Fatal(err)
	}
	var back Shard
	if _, err := back.ReadFrom(&pb); err != nil {
		t.Fatal(err)
	}
	if back.Offset != 17 || len(back.Edges) != 23 || back.Edges[0] != g.Edges[17] {
		t.Fatalf("shard addressing lost: %+v", back)
	}

	if !SniffBlock(bufio.NewReader(bytes.NewReader(stream))) {
		t.Error("SniffBlock missed a block stream")
	}
	var text bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	if SniffBlock(bufio.NewReader(bytes.NewReader(text.Bytes()))) {
		t.Error("SniffBlock misread the text format as binary")
	}
}

// TestReadGraphRefusesNonGraphBlocks: ReadGraph takes outside input
// (hetrun -input), so a shard that is not a whole graph — a mid-graph
// offset, or an endpoint at or past N — is ErrCorrupt, never a graph with
// edges silently dropped (on 3 vertices, 0–5 and 1–2 share graph.New's key).
func TestReadGraphRefusesNonGraphBlocks(t *testing.T) {
	read := func(s Shard) (*graph.Graph, error) {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return ReadGraph(&buf)
	}
	for name, s := range map[string]Shard{
		"offset and endpoint": {N: 3, Offset: 7, Edges: []graph.Edge{{U: 0, V: 5, W: 1}, {U: 1, V: 2, W: 1}}},
		"offset":              {N: 3, Offset: 7, Edges: []graph.Edge{{U: 1, V: 2, W: 1}}},
		"endpoint past N":     {N: 3, Edges: []graph.Edge{{U: 0, V: 5, W: 1}, {U: 1, V: 2, W: 1}}},
		"endpoint at N":       {N: 3, Edges: []graph.Edge{{U: 3, V: 1, W: 1}}},
	} {
		if g, err := read(s); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: read back %v, %v; want ErrCorrupt", name, g, err)
		}
	}
	g, err := read(Shard{N: 3, Edges: []graph.Edge{{U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1}}})
	if err != nil || g.N != 3 || len(g.Edges) != 2 {
		t.Fatalf("valid 3-vertex graph read back as %+v, %v", g, err)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBlockTypedErrors checks the block reader's typed error behavior on
// malformed input.
func TestBlockTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGraph(&buf, graph.GNMWeighted(10, 20, 3)); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var s Shard
	if _, err := s.ReadFrom(bytes.NewReader(stream[:5])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header: %v, want ErrTruncated", err)
	}
	if _, err := s.ReadFrom(bytes.NewReader(stream[:len(stream)-1])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v, want ErrTruncated", err)
	}
	for name, at := range map[string]int{"magic": 0, "version": 2, "kind": 3} {
		bad := bytes.Clone(stream)
		bad[at]++
		if _, err := s.ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad %s: %v, want ErrCorrupt", name, err)
		}
	}
	// A message frame is not a block frame.
	mf, err := AppendMessage(nil, &Message{Kind: KindNil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFrom(bytes.NewReader(mf)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("message frame read as block: %v, want ErrCorrupt", err)
	}
	if !strings.HasPrefix(ErrCorrupt.Error(), "wire:") {
		t.Error("error strings should carry the wire: prefix")
	}
}
