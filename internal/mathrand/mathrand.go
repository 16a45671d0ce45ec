// Package mathrand is math/rand's generator as a concrete type. A draw from
// a *rand.Rand goes Rand.Float64 → Rand.Int63 → Source.Int63 through an
// interface; a draw from a *Rand compiles to a few inlined loads and adds.
// Each method makes exactly the draws the math/rand method of the same name
// makes, so a stream seeded with New(seed) is the one
// rand.New(rand.NewSource(seed)) yields, call for call (TestRandIsMathRand).
// Below draws from a Bound, an Int31n argument prepared in advance, and makes
// exactly Int31n's draws with a multiply where Int31n divides
// (TestBelowIsInt31n). The delivery kernel, the voter generator and the
// population builder draw from it; every golden in the tree was recorded
// with math/rand. The package also holds the one stateless seeded draw,
// SplitMix64 and the (seed, slot) mixer Mix64 on it, which every replayed
// schedule reads.
package mathrand

import (
	"math/bits"
	"math/rand"
)

// Rand is the additive lagged-Fibonacci generator rand.NewSource returns —
// a 607-word register, the tap 273 words behind the feed, each output
// x = v[feed] + v[tap] written back at the feed — with the *rand.Rand
// methods its callers use.
type Rand struct {
	tap, feed int
	vec       [rngLen]uint64
	// norm is a rand.Rand over this same register, for NormFloat64: Rand
	// is a rand.Source64, so a normal draw consumes the stream exactly where
	// math/rand's would.
	norm *rand.Rand
	// src is the math/rand source Seed reseeds and reads the register's
	// definition from, kept so a reseed builds no 4.9 KB source.
	src rand.Source64
}

const (
	rngLen = 607
	rngTap = 273
)

// New returns the generator rand.New(rand.NewSource(seed)) returns.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	r.norm = rand.New(r)
	return r
}

// Seed sets the register to the state rand.NewSource(seed) starts in.
// math/rand stays the definition of that state: instead of copying its
// seeding table, Seed takes the source's first rngLen outputs and solves the
// recurrence backwards. From the starting state (tap 0, feed 334), output k
// adds the word at feed_k = (333−k) mod 607, still untouched, to the word at
// the tap, which holds output k−273 once k ≥ 273 and, before that, the
// untouched starting word at feed_{k+334}.
func (r *Rand) Seed(seed int64) {
	if r.src == nil {
		r.src = rand.NewSource(seed).(rand.Source64)
	} else {
		r.src.Seed(seed)
	}
	var x [rngLen]uint64
	for k := range x {
		x[k] = r.src.Uint64()
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		r.vec[feed(k)] = x[k] - x[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		r.vec[feed(k)] = x[k] - r.vec[feed(k+rngLen-rngTap)]
	}
	r.tap, r.feed = 0, rngLen-rngTap
}

// Uint64 is the generator's step, rngSource.Uint64.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// Int63 is rand.Rand.Int63.
func (r *Rand) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Uint32 is rand.Rand.Uint32.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 is rand.Rand.Int31.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 is rand.Rand.Float64, resampling the draw that rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int31n is rand.Rand.Int31n: a mask for a power of two, otherwise
// rejection above the largest multiple of n, then the remainder.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("mathrand: invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > limit {
		v = r.Int31()
	}
	return v % n
}

// Bound is an Int31n argument with what Int31n computes from it on every
// call done once: the rejection limit, and m = ⌊(2⁶⁴−1)/n⌋+1, with which the
// remainder v mod n is hi64((m·v mod 2⁶⁴)·n), exact for every v, n < 2³²
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation", 2019).
// A power of two needs no mask of its own: its limit rejects nothing and the
// remainder is the mask.
type Bound struct {
	n, m  uint64
	limit int32
}

// NewBound prepares n for Below; n must be positive.
func NewBound(n int32) Bound {
	if n <= 0 {
		panic("mathrand: invalid argument to NewBound")
	}
	return Bound{
		n:     uint64(n),
		m:     ^uint64(0)/uint64(n) + 1, // wraps to 0 at n = 1, where every remainder is 0
		limit: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
	}
}

// Below is Int31n(n) for the n b was made from: the same draws, the same
// rejections, the same value.
func (r *Rand) Below(b Bound) int32 {
	v := r.Int31()
	for v > b.limit {
		v = r.Int31()
	}
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int32(hi)
}

// Int63n is rand.Rand.Int63n, Int31n's method on 63-bit draws.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("mathrand: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// Intn is rand.Rand.Intn: Int31n below 2³¹, Int63n from there.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("mathrand: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// NormFloat64 is rand.Rand.NormFloat64.
func (r *Rand) NormFloat64() float64 { return r.norm.NormFloat64() }
