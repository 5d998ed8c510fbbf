// Package sketch implements the linear graph sketches of Ahn, Guha and
// McGregor [1] used by the paper's O(1)-round connectivity algorithm
// (Appendix C.1): ℓ0-samplers built from geometric level sampling with
// t-wise independent hashing and one-sparse recovery with field
// fingerprints.
//
// A Sketch is a linear function of its input vector, so sketches can be
// added together (Property 1 in the paper): the sketch of a vertex is the
// sum of the sketches of any partition of its edges, and the sum over a
// vertex set samples an edge leaving it. The small machines build each
// vertex's sketch where its incidences meet (VertexSketches).
//
// The vector being sketched is the signed vertex-incidence vector a_v over
// the edge universe {(i,j) : i < j}: a_v[(i,j)] = +1 if v == i and the edge
// is present, -1 if v == j. Summing a_v over a vertex set S cancels internal
// edges, so querying the sum returns an edge of E[S, V \ S].
//
// Representation: the geometric levels are nested — an index hashing to h
// is in level ℓ iff h < p/2^ℓ — so every update touches a prefix of the
// levels and so does every sum of updates. A Sketch therefore stores only a
// prefix: levels at and above the stored length are zero. That is the one
// representation (Family.NewSketch is the prefix of full length); an update
// or merge deeper than the prefix grows it, so nothing is ever dropped. A
// vertex of degree d stores about log2 d + 1 levels of ~20. What a sketch
// costs on the model's wire is a separate matter: Family.Words charges the
// full ℓ0-sampler of the paper whatever the host stores.
package sketch

import (
	"fmt"

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

// Words returns the communication size of one sketch of the family in
// machine words: the full ℓ0-sampler (every level's one-sparse triple plus
// the family id and universe), which is what the model charges for a sketch
// however short the prefix the host stores for it.
func (f *Family) Words() int { return 2 + 3*f.levels }

// depth returns how many of the family's levels hold an index hashing to h.
// Level ℓ holds it iff h < p/2^ℓ, so the levels holding it are the prefix
// [0, depth); h < p makes that at least level 0.
func (f *Family) depth(h uint64) int {
	d := 0
	for bound := xrand.MersennePrime; d < f.levels && h < bound; bound >>= 1 {
		d++
	}
	return d
}

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

// Sketch is an addable ℓ0-sampler over signed unit-valued vectors. It
// stores a prefix of its family's levels; the levels at and above
// len(levels) are zero (the package comment says why the zeros always form
// a suffix). Every reader — Query, IsZero, Merge, Clone — takes the missing
// levels as zero, and every writer grows the prefix to the depth it writes.
type Sketch struct {
	familyID uint64
	universe int64
	levels   []oneSparse
}

// NewSketch returns an empty sketch of the family over the given universe,
// at full depth: no update or merge within the family grows it.
func (f *Family) NewSketch(universe int64) *Sketch {
	return &Sketch{
		familyID: f.id,
		universe: universe,
		levels:   make([]oneSparse, f.levels),
	}
}

// Depth returns the number of levels the sketch stores.
func (s *Sketch) Depth() int { return len(s.levels) }

// grow extends the stored prefix with zero levels to at least depth.
func (s *Sketch) grow(depth int) {
	if n := depth - len(s.levels); n > 0 {
		s.levels = append(s.levels, make([]oneSparse, n)...)
	}
}

// carve returns len(depths) empty sketches over the universe, sketch k
// storing depths[k] levels, out of two allocations whatever their number:
// the sketch headers and one cell slice of exactly Σ depths cells. Each
// prefix is capacity-clamped, so growing one reallocates it rather than
// running into its neighbour. The caller stamps the family ids.
func carve(universe int64, depths []int32) ([]Sketch, []oneSparse) {
	total := 0
	for _, d := range depths {
		total += int(d)
	}
	sks := make([]Sketch, len(depths))
	cells := make([]oneSparse, total)
	off := 0
	for k, d := range depths {
		end := off + int(d)
		sks[k] = Sketch{universe: universe, levels: cells[off:end:end]}
		off = end
	}
	return sks, cells
}

// Add applies a single update: vector[idx] += val, with val ∈ {+1, -1}.
func (f *Family) Add(s *Sketch, idx int64, val int) {
	if val != 1 && val != -1 {
		panic("sketch: val must be ±1") // programming error, not data error
	}
	rPow := xrand.PowModP(f.r, uint64(idx))
	depth := f.depth(f.hash.Eval(uint64(idx)))
	s.grow(depth)
	addLevels(s.levels, idx, val, rPow, depth)
}

// addLevels applies one prepared update to the levels holding its index,
// levels[:depth]. The caller has sized the prefix: an update deeper than
// the prefix would lose cells without a trace, so it panics instead.
func addLevels(levels []oneSparse, idx int64, val int, rPow uint64, depth int) {
	if depth > len(levels) {
		panic("sketch: update deeper than the stored prefix") // programming error, not data error
	}
	for ℓ := range levels[:depth] {
		levels[ℓ].add(idx, val, rPow)
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

// prepare computes everything edge e's update needs before a cell is
// touched — the edge key, its fingerprint power and the depth of the level
// prefix holding it: one field multiplication and one hash evaluation,
// shared by both endpoints.
func (up *EdgeUpdater) prepare(e graph.Edge) (idx int64, rPow uint64, depth int) {
	idx = e.Key(up.n)
	rPow = xrand.MulModP(up.rowPow[e.U], up.colPow[e.V])
	return idx, rPow, up.f.depth(up.f.hash.Eval(uint64(idx)))
}

// AddEdgeBoth applies edge e's signed incidence update to both endpoint
// sketches — +1 into su (the sketch accumulating endpoint e.U), -1 into sv
// — with one fingerprint power and one hash evaluation shared across both.
// Equivalent to one Add per endpoint, bit for bit.
func (up *EdgeUpdater) AddEdgeBoth(su, sv *Sketch, e graph.Edge) {
	idx, rPow, depth := up.prepare(e)
	su.grow(depth)
	sv.grow(depth)
	addLevels(su.levels, idx, 1, rPow, depth)
	addLevels(sv.levels, idx, -1, rPow, depth)
}

// An Incidence is one endpoint's half of an edge: vertex V meets neighbour
// U ≠ V. It carries edge {V, U}'s update to V's sketch — +1 if V is the
// smaller endpoint, -1 if the larger — in two words, where a sketch is
// Family.Words.
type Incidence struct{ V, U int }

// VertexSketches builds the sketches of the vertices of one run of
// incidences sorted by vertex, holding every incidence of each of its
// vertices: for each vertex and each updater (one per family — per Borůvka
// phase), the sketch of the vertex's incidence vector. Sketch j·len(ups)+t
// is updater t's sketch of the run's j-th distinct vertex. Bit for bit the
// sketches are what AddEdgeBoth over the vertex's edges leaves in
// Family.NewSketch ones, at exactly their depth: every update is prepared
// once, a sketch's depth is the deepest of its updates, and headers and
// cells are carved to fit before the updates are applied — two slices and
// two scratch slices per run whatever it holds, and no cell that stays zero.
func VertexSketches(ups []*EdgeUpdater, run []Incidence) []Sketch {
	phases := len(ups)
	if len(run) == 0 || phases == 0 {
		return nil
	}
	type prepared struct {
		rPow     uint64
		depth, k int32 // k: the index of the sketch the update goes to
	}
	prep := make([]prepared, len(run)*phases)
	depths := make([]int32, len(run)*phases) // the first d·phases, for d distinct vertices
	d := 0
	for i, in := range run {
		if i > 0 && in.V < run[i-1].V {
			panic("sketch: incidence run not sorted by vertex") // programming error, not data error
		}
		if i == 0 || in.V != run[i-1].V {
			d++
		}
		e := graph.NewEdge(in.V, in.U, 1)
		for t, up := range ups {
			_, rPow, depth := up.prepare(e)
			k := (d-1)*phases + t
			prep[i*phases+t] = prepared{rPow: rPow, depth: int32(depth), k: int32(k)}
			depths[k] = max(depths[k], int32(depth))
		}
	}
	n := ups[0].n
	sks, _ := carve(int64(n)*int64(n), depths[:d*phases])
	for i, in := range run {
		idx, val := graph.NewEdge(in.V, in.U, 1).Key(n), 1
		if in.V > in.U {
			val = -1
		}
		for t, p := range prep[i*phases : (i+1)*phases] {
			sks[p.k].familyID = ups[t].f.id
			addLevels(sks[p.k].levels, idx, val, p.rPow, int(p.depth))
		}
	}
	return sks
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
// family and universe; their depths may differ. The sum is as deep as the
// deeper operand: a deeper other grows s first. A caller that owns both can
// merge the shallower into the deeper instead and allocate nothing; the
// cell adds are canonical, so a+b and b+a agree bit for bit.
func (s *Sketch) Merge(other *Sketch) error {
	if s.familyID != other.familyID || s.universe != other.universe {
		return fmt.Errorf("sketch: merging incompatible sketches")
	}
	s.grow(len(other.levels))
	mergeLevels(s.levels, other.levels)
	return nil
}

// mergeLevels is the vectorized XOR-merge kernel: component-wise sums of
// the one-sparse triples over the shorter of the two prefixes (the longer
// one's tail meets implied zeros), unrolled 4-wide with the lengths
// equalized up front so the compiler drops the per-element bounds checks.
// Merge order and arithmetic are exactly the scalar loop's (field adds are
// canonical), so the result is bit-identical — pinned by
// TestMergeKernelMatchesScalar.
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
	return len(s.levels) == 0 || s.levels[0] == oneSparse{}
}

// DecodeEdgeKey converts a universe index back to the edge endpoints.
func DecodeEdgeKey(idx int64, n int) (u, v int) {
	return int(idx / int64(n)), int(idx % int64(n))
}
