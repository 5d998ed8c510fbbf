// Package xrand provides the deterministic randomness substrate used by the
// heterogeneous-MPC simulator: splittable seeds, per-machine PRNGs (the
// paper's model of §2, in which every machine holds private random bits),
// and the t-wise independent hash families over the Mersenne field
// GF(2^61 - 1) that the ℓ0-sampling sketches of Appendix C.1 require.
//
// Every algorithm in this repository takes an explicit seed, and all
// per-machine randomness is derived from it with SplitMix64, so runs are
// reproducible regardless of goroutine scheduling.
package xrand

import (
	"math/bits"
	"math/rand/v2"
)

// MersennePrime is the field modulus 2^61 - 1 used by the hash families and
// the sketch fingerprints.
const MersennePrime uint64 = (1 << 61) - 1

// SplitMix64 advances the SplitMix64 generator once and returns the output.
// It is the standard seed-derivation function: feeding distinct inputs yields
// statistically independent streams, which we use to split one master seed
// into per-machine and per-purpose seeds.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives the i-th child seed of seed.
func Split(seed uint64, i uint64) uint64 {
	return SplitMix64(seed ^ SplitMix64(i+0x1234_5678_9abc_def1))
}

// New returns a deterministic PRNG derived from seed.
func New(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, SplitMix64(seed)))
}

// Streams returns n generators cut from two slabs, the i-th drawing the
// stream of New(Split(seed, i)).
func Streams(seed uint64, n int) []rand.Rand {
	pcgs := make([]rand.PCG, n)
	rngs := make([]rand.Rand, n)
	for i := range rngs {
		s := Split(seed, uint64(i))
		pcgs[i].Seed(s, SplitMix64(s))
		rngs[i] = *rand.New(&pcgs[i])
	}
	return rngs
}

// ModP reduces x modulo MersennePrime.
func ModP(x uint64) uint64 {
	x = (x & MersennePrime) + (x >> 61)
	if x >= MersennePrime {
		x -= MersennePrime
	}
	return x
}

// MulModP returns a*b mod 2^61-1 using 128-bit intermediate arithmetic.
func MulModP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a, b < 2^61, so the 122-bit product is (hi<<64)|lo with hi < 2^58.
	// x mod (2^61-1) == (x & P) + (x >> 61), applied until < P.
	r := (lo & MersennePrime) + ((lo >> 61) | (hi << 3))
	return ModP(r)
}

// AddModP returns a+b mod 2^61-1 for a, b < 2^61-1.
func AddModP(a, b uint64) uint64 {
	return ModP(a + b)
}

// SubModP returns a-b mod 2^61-1 for a, b < 2^61-1.
func SubModP(a, b uint64) uint64 {
	return ModP(a + MersennePrime - b)
}

// PowModP returns base^exp mod 2^61-1.
func PowModP(base, exp uint64) uint64 {
	result := uint64(1)
	base = ModP(base)
	for exp > 0 {
		if exp&1 == 1 {
			result = MulModP(result, base)
		}
		base = MulModP(base, base)
		exp >>= 1
	}
	return result
}

// Hash is a t-wise independent hash function over GF(2^61-1): a random
// polynomial of degree t-1 evaluated at the key. For t = 2 it is the classic
// pairwise-independent family; sketches use t = Θ(log n).
type Hash struct {
	coeff []uint64 // degree t-1 polynomial, coeff[0] is the constant term
}

// NewHash draws a t-wise independent hash function from seed. t must be >= 1.
func NewHash(seed uint64, t int) Hash {
	if t < 1 {
		t = 1
	}
	coeff := make([]uint64, t)
	rng := New(seed)
	for i := range coeff {
		coeff[i] = rng.Uint64() % MersennePrime
	}
	return Hash{coeff: coeff}
}

// Eval evaluates the hash at key x, returning a value in [0, 2^61-1).
func (h Hash) Eval(x uint64) uint64 {
	x = ModP(x)
	acc := uint64(0)
	for i := len(h.coeff) - 1; i >= 0; i-- {
		acc = AddModP(MulModP(acc, x), h.coeff[i])
	}
	return acc
}

// Eval01 evaluates the hash and maps it to [0, 1).
func (h Hash) Eval01(x uint64) float64 {
	return float64(h.Eval(x)) / float64(MersennePrime)
}
