package wire

import (
	"bytes"
	"io"
	"testing"
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
