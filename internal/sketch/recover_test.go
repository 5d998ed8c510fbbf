package sketch

import (
	"testing"

	"hetmpc/internal/xrand"
)

// counted is a one-sparse cell that also keeps the count word Σ val, the
// rule where the count picks the sign of a ±1 entry and the fingerprint
// then checks it. It is the oracle recover is held to.
type counted struct {
	count int64
	z, fp uint64
}

func (c *counted) add(idx int64, val int, rPow uint64) {
	c.count += int64(val)
	if val > 0 {
		c.z += uint64(idx)
		c.fp = xrand.AddModP(c.fp, rPow)
	} else {
		c.z -= uint64(idx)
		c.fp = xrand.SubModP(c.fp, rPow)
	}
}

func (c counted) recover(r uint64, universe int64) (idx int64, val int, ok bool) {
	switch c.count {
	case 1:
		idx, val = int64(c.z), 1
	case -1:
		idx, val = int64(-c.z), -1
	default:
		return 0, 0, false
	}
	if idx < 0 || idx >= universe {
		return 0, 0, false
	}
	want := xrand.PowModP(r, uint64(idx))
	if val < 0 {
		want = xrand.SubModP(0, want)
	}
	return idx, val, c.fp == want
}

// runOneSparseRecover applies the updates data encodes to one level and to
// the exact vector: byte 0 seeds the family, byte 1 picks the universe
// size in [1, 128], and each of up to 4 further bytes b adds -1 (b odd) or
// +1 (b even) at index (b>>1) mod the universe. recover must return the
// vector's one entry and its sign exactly when the vector is one-sparse
// with a ±1 value, as the counted rule does, and IsZero of a sketch whose
// level 0 is that level must hold exactly when the vector is empty.
func runOneSparseRecover(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	f := NewFamilyLevels(2, uint64(data[0]))
	universe := 1 + int64(data[1])%128
	var o oneSparse
	var oracle counted
	exact := map[int64]int{}
	for _, b := range data[2:min(len(data), 6)] {
		idx, val := int64(b>>1)%universe, 1-2*int(b&1)
		rPow := xrand.PowModP(f.r, uint64(idx))
		o.add(idx, val, rPow)
		oracle.add(idx, val, rPow)
		if exact[idx] += val; exact[idx] == 0 {
			delete(exact, idx)
		}
	}
	var wantIdx int64
	wantVal, wantOK := 0, false
	if len(exact) == 1 {
		for idx, val := range exact {
			if val == 1 || val == -1 {
				wantIdx, wantVal, wantOK = idx, val, true
			}
		}
	}
	if idx, val, ok := oracle.recover(f.r, universe); ok != wantOK || ok && (idx != wantIdx || val != wantVal) {
		t.Fatalf("vector %v: the counted rule recovers (%d, %+d, %v), want (%d, %+d, %v)", exact, idx, val, ok, wantIdx, wantVal, wantOK)
	}
	if idx, val, ok := o.recover(f.r, universe); ok != wantOK || ok && (idx != wantIdx || val != wantVal) {
		t.Fatalf("vector %v: recover returns (%d, %+d, %v), want (%d, %+d, %v)", exact, idx, val, ok, wantIdx, wantVal, wantOK)
	}
	s := &Sketch{familyID: f.id, universe: universe, levels: []oneSparse{o}}
	if got := s.IsZero(); got != (len(exact) == 0) {
		t.Fatalf("vector %v: IsZero = %v, want %v", exact, got, len(exact) == 0)
	}
	if got := oracle == (counted{}); got != (len(exact) == 0) {
		t.Fatalf("vector %v: the counted cell reads zero = %v, want %v", exact, got, len(exact) == 0)
	}
}

// FuzzOneSparseRecover holds one-sparse recovery and IsZero to the exact
// vector and to the counted rule over fuzzed runs of up to 4 signed unit
// updates on one level; the committed corpus replays under plain go test.
func FuzzOneSparseRecover(f *testing.F) {
	f.Add([]byte{7, 63, 10})      // one +1
	f.Add([]byte{7, 63, 11})      // one -1
	f.Add([]byte{7, 63, 0, 1, 0}) // index 0: +1, -1, +1
	f.Add([]byte{7, 63, 1, 1, 0}) // index 0: -1, -1, +1
	f.Fuzz(runOneSparseRecover)
}
