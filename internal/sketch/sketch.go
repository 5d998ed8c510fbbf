// Package sketch implements the linear graph sketches of Ahn, Guha and
// McGregor [1] used by the paper's O(1)-round connectivity algorithm
// (Appendix C.1): ℓ0-samplers built from geometric level sampling with
// t-wise independent hashing and one-sparse recovery with field
// fingerprints. A level keeps two words, z = Σ val·idx and the fingerprint
// fp = Σ val·r^idx: the fingerprint picks the sign of a ±1 entry, so no
// count word Σ val is kept.
//
// A Sketch is a linear function of its input vector, so sketches can be
// added together (Property 1 in the paper): the sketch of a vertex is the
// sum of the sketches of any partition of its edges, and the sum over a
// vertex set samples an edge leaving it. The small machines build each
// vertex's sketch, or each component's, where its incidences meet
// (VertexSketches); the large machine adds the incidences it holds one at a
// time into the sums it forms (EdgeUpdater.AddIncidence).
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
// vertex of degree d stores about log2 d + 1 levels of ~20. A sketch ships
// the same prefix: Sketch.Words charges its depth and stored levels, and the
// receiver's readers take the levels above as the zeros they are. Its family
// id and universe do not ship: a receiver knows which family a sketch
// belongs to from where it arrives, and fixes the universe it sketches over
// (connectivity's is n²), so it restamps both.
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

// oneSparse is a one-sparse recovery structure over signed unit values. It
// keeps no count word: the fingerprint picks the sign of a ±1 entry (see
// recover).
type oneSparse struct {
	z  uint64 // Σ val·idx   (wrapping arithmetic; validated by fp)
	fp uint64 // Σ val·r^idx mod p
}

func (o *oneSparse) add(idx int64, val int, rPow uint64) {
	if val > 0 {
		o.z += uint64(idx)
		o.fp = xrand.AddModP(o.fp, rPow)
	} else {
		o.z -= uint64(idx)
		o.fp = xrand.SubModP(o.fp, rPow)
	}
}

func (o *oneSparse) merge(b oneSparse) {
	o.z += b.z
	o.fp = xrand.AddModP(o.fp, b.fp)
}

// recover attempts one-sparse recovery: it succeeds iff the structure holds
// exactly one index with value ±1. It tries idx = z with value +1, then
// idx = −z with value −1; a candidate must lie in [0, universe) and match
// the fingerprint, r^idx or −r^idx. Only idx = 0 is in range both ways, and
// there the two fingerprints differ. Any other vector passes only if
// Σ x_i·r^i = ±r^idx, a nonzero polynomial in r of degree below the
// universe size, so with probability at most universe/p.
func (o *oneSparse) recover(r uint64, universe int64) (idx int64, val int, ok bool) {
	for _, val = range [2]int{1, -1} {
		idx = int64(o.z) * int64(val)
		if idx < 0 || idx >= universe {
			continue
		}
		want := xrand.PowModP(r, uint64(idx))
		if val < 0 {
			want = xrand.SubModP(0, want)
		}
		if o.fp == want {
			return idx, val, true
		}
	}
	return 0, 0, false
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

// Words returns the sketch's size on the model's wire in machine words: its
// depth, then one one-sparse pair (z, fp) per stored level. The levels above the
// depth are zero, and the receiver restamps the family id and universe (see
// the package comment), so nothing else need be sent.
func (s *Sketch) Words() int { return PrefixWords(len(s.levels)) }

// PrefixWords is what a sketch storing depth levels costs on the wire
// (Words): its depth, then a (z, fp) pair a level.
func PrefixWords(depth int) int { return 1 + 2*depth }

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

// Depth returns how many of the family's levels incidence in's update
// reaches: the depth of the prefix it writes, and so the depth a vertex's
// sketch stores is its deepest incidence's (VertexSketches). No cell is
// touched.
func (up *EdgeUpdater) Depth(in Incidence) int {
	e, _ := in.update()
	_, _, depth := up.prepare(e)
	return depth
}

// AddIncidence applies incidence in's update to s, the sketch of a group
// holding in.V, growing its prefix where the update reaches deeper. Adding
// a group's incidences one by one into any sketch of the family sums, cell
// for cell, what VertexSketches builds of them (the cell adds are
// canonical).
func (up *EdgeUpdater) AddIncidence(s *Sketch, in Incidence) {
	e, val := in.update()
	idx, rPow, depth := up.prepare(e)
	s.grow(depth)
	addLevels(s.levels, idx, val, rPow, depth)
}

// An Incidence is one endpoint's half of an edge: vertex V meets neighbour
// U ≠ V. It carries edge {V, U}'s update — +1 if V is the smaller endpoint,
// -1 if the larger — to the sketch of its group (Group): V's own, in two
// words, where a sketch is Sketch.Words, or, once FiledUnder a
// representative of V's component, the component's, in three. The
// component's sketch is the sum of its members' (Property 1), as the edges
// inside it cancel.
type Incidence struct {
	V, U int
	rep  int // 1 + the representative the incidence is filed under; 0 files it under V
}

// FiledUnder returns the incidence filed under rep, a representative of V's
// component: it then updates the component's sketch.
func (in Incidence) FiledUnder(rep int) Incidence {
	in.rep = rep + 1
	return in
}

// Group is the sketch the incidence updates: V's, or its component
// representative's once FiledUnder one.
func (in Incidence) Group() int {
	if in.rep == 0 {
		return in.V
	}
	return in.rep - 1
}

// update is the incidence's update: edge {V, U}, +1 if V is its smaller
// endpoint and -1 if the larger.
func (in Incidence) update() (graph.Edge, int) {
	if in.V > in.U {
		return graph.NewEdge(in.V, in.U, 1), -1
	}
	return graph.NewEdge(in.V, in.U, 1), 1
}

// VertexSketches builds the sketches of the groups of one run of incidences
// sorted by group, holding every incidence of each of its groups: for each
// group and each updater (one per family — per Borůvka phase), the sketch of
// the group's incidence vector. Sketch j·len(ups)+t is updater t's sketch of
// the run's j-th distinct group. Bit for bit the sketches are what
// AddEdgeBoth over the group's edges leaves in Family.NewSketch ones: every
// update is prepared once, a sketch is carved at the deepest of its updates,
// headers and cells are carved to fit before the updates are applied — two
// slices and two scratch slices per run whatever it holds — and a sketch
// then stores up to its highest nonzero level, which for a vertex is its
// deepest update's. A group's sketch is the sum of its vertices' (the cell
// adds are canonical), whichever order its incidences come in.
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
	depths := make([]int32, len(run)*phases) // the first d·phases, for d distinct groups
	d := 0
	for i, in := range run {
		g := in.Group()
		if i > 0 && g < run[i-1].Group() {
			panic("sketch: incidence run not sorted by group") // programming error, not data error
		}
		if i == 0 || g != run[i-1].Group() {
			d++
		}
		e, _ := in.update()
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
		e, val := in.update()
		idx := e.Key(n)
		for t, p := range prep[i*phases : (i+1)*phases] {
			sks[p.k].familyID = ups[t].f.id
			addLevels(sks[p.k].levels, idx, val, p.rPow, int(p.depth))
		}
	}
	for k := range sks {
		sks[k].trim()
	}
	return sks
}

// trim drops the zero levels at the top of the stored prefix, where the
// updates that reached them cancelled: the levels above the prefix are zero
// by representation, so every reader sees the same cells.
func (s *Sketch) trim() {
	d := len(s.levels)
	for d > 0 && s.levels[d-1] == (oneSparse{}) {
		d--
	}
	s.levels = s.levels[:d]
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

// mergeLevels is the vectorized merge kernel: component-wise sums of
// the one-sparse pairs over the shorter of the two prefixes (the longer
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
		d0.z += s0.z
		d0.fp = xrand.AddModP(d0.fp, s0.fp)
		d1.z += s1.z
		d1.fp = xrand.AddModP(d1.fp, s1.fp)
		d2.z += s2.z
		d2.fp = xrand.AddModP(d2.fp, s2.fp)
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

// IsZero reports whether the sketch is of the all-zero vector: level 0
// contains every index, so (z, fp) = 0 there means an empty vector, w.h.p.
// (a nonempty vector has fp = 0 only at a root of its fingerprint
// polynomial).
func (s *Sketch) IsZero() bool {
	return len(s.levels) == 0 || s.levels[0] == oneSparse{}
}

// DecodeEdgeKey converts a universe index back to the edge endpoints.
func DecodeEdgeKey(idx int64, n int) (u, v int) {
	return int(idx / int64(n)), int(idx % int64(n))
}
