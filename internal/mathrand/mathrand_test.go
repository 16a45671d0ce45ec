package mathrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandIsMathRand runs Rand against rand.New(rand.NewSource(seed)) call
// for call: seeds on both sides of math/rand's seed reduction (0, which it
// replaces, negatives, and seeds at and past 2³¹), 100 000 interleaved draws
// each, with Int31n and Intn at powers of two, at small counts and at
// 2³⁰+1, where about half the draws are rejected, Intn and Int63n past 2³¹
// (Int63's rejection loop at 2⁶²+1), and enough normal draws that
// NormFloat64's tail strip is taken.
func TestRandIsMathRand(t *testing.T) {
	ns := []int32{1, 2, 3, 4, 7, 64, 100, 1 << 30, 1<<30 + 1, math.MaxInt32}
	wide := []int64{1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, 1<<62 + 1, math.MaxInt64}
	for _, seed := range []int64{0, 1, 31, -1, -1 << 40, 1 << 31, 1<<62 + 12345, math.MaxInt64, math.MinInt64} {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		tails := 0
		for i := 0; i < 100_000; i++ {
			var a, b uint64
			switch i % 9 {
			case 0:
				a, b = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				a, b = uint64(got.Uint32()), uint64(want.Uint32())
			case 2:
				n := ns[i/9%len(ns)]
				a, b = uint64(got.Int31n(n)), uint64(want.Int31n(n))
			case 3:
				x := got.NormFloat64()
				if math.Abs(x) > 3.442619855899 { // rn, where the ziggurat's base strip ends
					tails++
				}
				a, b = math.Float64bits(x), math.Float64bits(want.NormFloat64())
			case 4:
				a, b = uint64(got.Int63()), uint64(want.Int63())
			case 5:
				a, b = got.Uint64(), want.Uint64()
			case 6:
				n := int(ns[i/9%len(ns)])
				a, b = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 7:
				n := wide[i/9%len(wide)]
				a, b = uint64(got.Int63n(n)), uint64(want.Int63n(n))
			case 8:
				n := int(wide[i/9%len(wide)])
				a, b = uint64(got.Intn(n)), uint64(want.Intn(n))
			}
			if a != b {
				t.Fatalf("seed %d call %d (kind %d): Rand %#x, math/rand %#x", seed, i, i%9, a, b)
			}
		}
		if tails == 0 {
			t.Errorf("seed %d: no normal draw reached the tail", seed)
		}
	}
}

// TestBelowIsInt31n runs Below against Int31n on a twin generator: at powers
// of two, at the voter generator's table sizes, at 2³⁰, at 2³⁰+1, where
// about half the draws are rejected, and at 2³¹−1, 200 000 Below draws each
// with Float64, Int31n and Uint64 draws between them, so a Below that drew
// once too often or too seldom shifts every later value.
func TestBelowIsInt31n(t *testing.T) {
	for _, n := range []int32{1, 2, 3, 20, 32, 34, 47, 2000, 9999, 1 << 30, 1<<30 + 1, math.MaxInt32} {
		b := NewBound(n)
		got, want := New(int64(n)), New(int64(n))
		for i := 0; i < 200_000; i++ {
			if a, w := got.Below(b), want.Int31n(n); a != w {
				t.Fatalf("n %d draw %d: Below %d, Int31n %d", n, i, a, w)
			}
			var a, w uint64
			switch i % 3 {
			case 0:
				a, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				a, w = uint64(got.Int31n(7)), uint64(want.Int31n(7))
			case 2:
				a, w = got.Uint64(), want.Uint64()
			}
			if a != w {
				t.Fatalf("n %d after draw %d: twins diverged (%#x, %#x)", n, i, a, w)
			}
		}
	}
}

// BenchmarkRand times one draw of each kind the delivery kernel and the
// world build make, from Rand and from math/rand on the same seed.
func BenchmarkRand(b *testing.B) {
	const seed = 31
	var sink float64
	for _, draw := range []struct {
		name string
		fast func(r *Rand, n int) float64
		std  func(r *rand.Rand, n int) float64
	}{
		{"Float64", func(r *Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += r.Float64()
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += r.Float64()
			}
			return s
		}},
		{"Uint32", func(r *Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Uint32())
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Uint32())
			}
			return s
		}},
		{"Int31n", func(r *Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Int31n(3))
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Int31n(3))
			}
			return s
		}},
		{"Below", func(r *Rand, n int) (s float64) {
			three := NewBound(3)
			for i := 0; i < n; i++ {
				s += float64(r.Below(three))
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Int31n(3))
			}
			return s
		}},
		{"Intn", func(r *Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Intn(3))
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += float64(r.Intn(3))
			}
			return s
		}},
		{"NormFloat64", func(r *Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += r.NormFloat64()
			}
			return s
		}, func(r *rand.Rand, n int) (s float64) {
			for i := 0; i < n; i++ {
				s += r.NormFloat64()
			}
			return s
		}},
	} {
		b.Run(draw.name+"/mathrand", func(b *testing.B) {
			r := New(seed)
			b.ResetTimer()
			sink += draw.fast(r, b.N)
		})
		b.Run(draw.name+"/math_rand", func(b *testing.B) {
			r := rand.New(rand.NewSource(seed))
			b.ResetTimer()
			sink += draw.std(r, b.N)
		})
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN draw")
	}
}
