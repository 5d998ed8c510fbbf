// Package sketch implements the linear graph sketches of Ahn, Guha and
// McGregor [1] used by the paper's O(1)-round connectivity algorithm
// (Appendix C.1): ℓ0-samplers built from geometric level sampling with
// t-wise independent hashing and one-sparse recovery with field
// fingerprints.
//
// A Sketch is a linear function of its input vector, so sketches of
// edge-partitioned neighborhoods can be added together (Property 1 in the
// paper): the small machines each sketch the edges they hold and the sums
// are formed by aggregation.
//
// The vector being sketched is the signed vertex-incidence vector a_v over
// the edge universe {(i,j) : i < j}: a_v[(i,j)] = +1 if v == i and the edge
// is present, -1 if v == j. Summing a_v over a vertex set S cancels internal
// edges, so querying the sum returns an edge of E[S, V \ S].
package sketch

import (
	"fmt"

	"hetmpc/internal/arena"
	"hetmpc/internal/graph"
	"hetmpc/internal/xrand"
)

// Family fixes the shared randomness of a collection of compatible sketches:
// the level hash and the fingerprint base. Sketches from the same family can
// be added; mixing families is a programming error and returns an error.
type Family struct {
	levels int
	hash   xrand.Hash
	r      uint64 // fingerprint base
	id     uint64 // for compatibility checks
}

// NewFamily creates a sketch family over a universe of at most `universe`
// indices, with shared randomness derived from seed. The number of geometric
// levels is ⌈log2 universe⌉ + 2 and the hash is Θ(log universe)-wise
// independent, as in [36].
func NewFamily(universe int64, seed uint64) *Family {
	levels := 2
	for u := int64(1); u < universe; u <<= 1 {
		levels++
	}
	return NewFamilyLevels(levels, seed)
}

// NewFamilyLevels creates a family with an explicit level count: useful when
// the number of nonzero entries is known to be far below the universe size
// (levels ≈ log2(max support) + O(1) suffice, shrinking every sketch).
func NewFamilyLevels(levels int, seed uint64) *Family {
	if levels < 2 {
		levels = 2
	}
	t := levels // t-wise independence ~ log of support
	rng := xrand.New(xrand.Split(seed, 0xF))
	return &Family{
		levels: levels,
		hash:   xrand.NewHash(xrand.Split(seed, 1), t),
		r:      rng.Uint64()%(xrand.MersennePrime-2) + 2,
		id:     xrand.SplitMix64(seed),
	}
}

// Levels returns the number of geometric levels.
func (f *Family) Levels() int { return f.levels }

// oneSparse is a one-sparse recovery structure over signed unit values.
type oneSparse struct {
	count int64  // Σ val
	z     uint64 // Σ val·idx   (wrapping arithmetic; validated by fp)
	fp    uint64 // Σ val·r^idx mod p
}

func (o *oneSparse) add(idx int64, val int, rPow uint64) {
	o.count += int64(val)
	if val > 0 {
		o.z += uint64(idx)
		o.fp = xrand.AddModP(o.fp, rPow)
	} else {
		o.z -= uint64(idx)
		o.fp = xrand.SubModP(o.fp, rPow)
	}
}

func (o *oneSparse) merge(b oneSparse) {
	o.count += b.count
	o.z += b.z
	o.fp = xrand.AddModP(o.fp, b.fp)
}

// recover attempts one-sparse recovery: it succeeds iff the structure holds
// exactly one index with value ±1 (up to the 1/p fingerprint failure
// probability).
func (o *oneSparse) recover(r uint64, universe int64) (idx int64, val int, ok bool) {
	switch o.count {
	case 1:
		idx = int64(o.z)
		val = 1
	case -1:
		idx = int64(-o.z)
		val = -1
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
	if o.fp != want {
		return 0, 0, false
	}
	return idx, val, true
}

// Sketch is an addable ℓ0-sampler over signed unit-valued vectors.
type Sketch struct {
	familyID uint64
	universe int64
	levels   []oneSparse
}

// NewSketch returns an empty sketch of the family over the given universe.
func (f *Family) NewSketch(universe int64) *Sketch {
	return &Sketch{
		familyID: f.id,
		universe: universe,
		levels:   make([]oneSparse, f.levels),
	}
}

// Words returns the communication size of the sketch in machine words.
func (s *Sketch) Words() int { return 2 + 3*len(s.levels) }

// Arena hands out sketches backed by the shared slab allocator
// (internal/arena), amortizing the allocations of NewSketch across whole
// slabs and supporting Reset reuse round over round. Sketches from an
// arena are ordinary sketches (merge, query, clone all work); the arena
// itself is not safe for concurrent use — use one per goroutine.
type Arena struct {
	f        *Family
	universe int64
	sketches arena.Arena[Sketch]
	levels   arena.Arena[oneSparse]
}

// NewArena returns an arena producing sketches of f over the universe,
// sized for n of them: the first sketch drawn allocates one slab of
// exactly n sketches and one of their n·levels level cells, and none is
// drawn before that, so an arena nothing is taken from costs nothing. A
// producer that outruns n falls back on the slab allocator's geometric
// growth.
func (f *Family) NewArena(universe int64, n int) *Arena {
	a := &Arena{f: f, universe: universe}
	a.sketches = *arena.New[Sketch](n)
	a.levels = *arena.New[oneSparse](n * f.levels)
	return a
}

// NewSketch returns a fresh empty sketch of family g from the arena's
// current slab. g is the arena's own family or any other with its level
// count: sketches of one shape share slabs whatever their randomness, so
// one arena can serve every phase of an algorithm.
func (a *Arena) NewSketch(g *Family) *Sketch {
	if g.levels != a.f.levels {
		panic("sketch: arena serves families of one level count") // programming error, not data error
	}
	s := &a.sketches.Alloc(1)[0]
	s.familyID = g.id
	s.universe = a.universe
	s.levels = a.levels.Alloc(g.levels)
	return s
}

// Reset reclaims every sketch the arena has handed out, retaining the
// slabs: every outstanding *Sketch becomes invalid and the next NewSketch
// reuses the memory without allocating (the arena contract, DESIGN.md §14).
func (a *Arena) Reset() {
	a.sketches.Reset()
	a.levels.Reset()
}

// Add applies a single update: vector[idx] += val, with val ∈ {+1, -1}.
func (f *Family) Add(s *Sketch, idx int64, val int) {
	if val != 1 && val != -1 {
		panic("sketch: val must be ±1") // programming error, not data error
	}
	rPow := xrand.PowModP(f.r, uint64(idx))
	h := f.hash.Eval(uint64(idx))
	addLevels(s.levels, idx, val, rPow, h)
}

// addLevels applies one precomputed update to the nested geometric levels:
// item idx belongs to level ℓ iff h < p / 2^ℓ.
func addLevels(levels []oneSparse, idx int64, val int, rPow, h uint64) {
	bound := xrand.MersennePrime
	for ℓ := 0; ℓ < len(levels); ℓ++ {
		if h >= bound {
			break
		}
		levels[ℓ].add(idx, val, rPow)
		bound >>= 1
	}
}

// An EdgeUpdater accelerates the edge-incidence hot path of one family
// over the n-vertex edge universe. Edge keys factor as idx = u·n + v, so
// the fingerprint power factors as r^idx = (r^n)^u · r^v: two precomputed
// n-entry tables turn the ~61 field multiplications of PowModP into one,
// and both endpoint updates of an edge share a single fingerprint/hash
// evaluation (the update index is the same edge key for both endpoints).
// The modular arithmetic is canonical (every op reduces to [0, p)), so the
// table product is bit-identical to the PowModP result — pinned against
// the per-endpoint PowModP oracle by TestEdgeUpdaterMatchesAddEdgeIncidence.
//
// Updaters are read-only after construction and safe to share across
// goroutines.
type EdgeUpdater struct {
	f      *Family
	n      int
	rowPow []uint64 // (r^n)^u for u in [0, n)
	colPow []uint64 // r^v for v in [0, n)
}

// NewEdgeUpdater builds the power tables of f over an n-vertex universe:
// 2n field multiplications amortized against one per subsequent update.
func (f *Family) NewEdgeUpdater(n int) *EdgeUpdater {
	up := &EdgeUpdater{f: f, n: n}
	rn := xrand.PowModP(f.r, uint64(n))
	up.rowPow = make([]uint64, n)
	up.colPow = make([]uint64, n)
	row, col := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		up.rowPow[i] = row
		up.colPow[i] = col
		row = xrand.MulModP(row, rn)
		col = xrand.MulModP(col, f.r)
	}
	return up
}

// AddEdgeBoth applies edge e's signed incidence update to both endpoint
// sketches — +1 into su (the sketch accumulating endpoint e.U), -1 into sv
// — with one fingerprint power and one hash evaluation shared across both.
// Equivalent to one Add per endpoint, bit for bit.
func (up *EdgeUpdater) AddEdgeBoth(su, sv *Sketch, e graph.Edge) {
	idx := e.Key(up.n)
	rPow := xrand.MulModP(up.rowPow[e.U], up.colPow[e.V])
	h := up.f.hash.Eval(uint64(idx))
	addLevels(su.levels, idx, 1, rPow, h)
	addLevels(sv.levels, idx, -1, rPow, h)
}

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	out := &Sketch{
		familyID: s.familyID,
		universe: s.universe,
		levels:   make([]oneSparse, len(s.levels)),
	}
	copy(out.levels, s.levels)
	return out
}

// Merge adds other into s (linearity). The sketches must come from the same
// family and universe.
func (s *Sketch) Merge(other *Sketch) error {
	if s.familyID != other.familyID || s.universe != other.universe || len(s.levels) != len(other.levels) {
		return fmt.Errorf("sketch: merging incompatible sketches")
	}
	mergeLevels(s.levels, other.levels)
	return nil
}

// mergeLevels is the vectorized XOR-merge kernel: component-wise sums of
// the one-sparse triples, unrolled 4-wide with the lengths equalized up
// front so the compiler drops the per-element bounds checks. Merge order
// and arithmetic are exactly the scalar loop's (field adds are canonical),
// so the result is bit-identical — pinned by TestMergeKernelMatchesScalar.
//
//hetlint:zeroalloc merge hot path; pinned by TestSketchMergeZeroAllocs
func mergeLevels(dst, src []oneSparse) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst = dst[:n]
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, s0 := &dst[i], &src[i]
		d1, s1 := &dst[i+1], &src[i+1]
		d2, s2 := &dst[i+2], &src[i+2]
		d3, s3 := &dst[i+3], &src[i+3]
		d0.count += s0.count
		d0.z += s0.z
		d0.fp = xrand.AddModP(d0.fp, s0.fp)
		d1.count += s1.count
		d1.z += s1.z
		d1.fp = xrand.AddModP(d1.fp, s1.fp)
		d2.count += s2.count
		d2.z += s2.z
		d2.fp = xrand.AddModP(d2.fp, s2.fp)
		d3.count += s3.count
		d3.z += s3.z
		d3.fp = xrand.AddModP(d3.fp, s3.fp)
	}
	for ; i < n; i++ {
		dst[i].merge(src[i])
	}
}

// Query attempts to sample a nonzero index of the sketched vector. It scans
// from the sparsest level down and returns the first successful one-sparse
// recovery. ok=false means the vector is (probably) zero or recovery failed
// at every level; callers that need high-probability success use several
// independent families.
func (f *Family) Query(s *Sketch) (idx int64, val int, ok bool) {
	for ℓ := len(s.levels) - 1; ℓ >= 0; ℓ-- {
		if idx, val, ok = s.levels[ℓ].recover(f.r, s.universe); ok {
			return idx, val, true
		}
	}
	return 0, 0, false
}

// IsZero reports whether the sketch is of the all-zero vector (level 0
// contains every index, so an empty level 0 means an empty vector —
// deterministically for count/z, w.h.p. once fingerprints are involved).
func (s *Sketch) IsZero() bool {
	l0 := s.levels[0]
	return l0.count == 0 && l0.z == 0 && l0.fp == 0
}

// DecodeEdgeKey converts a universe index back to the edge endpoints.
func DecodeEdgeKey(idx int64, n int) (u, v int) {
	return int(idx / int64(n)), int(idx % int64(n))
}
