package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs; 0 with fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// WelchT holds the result of a Welch two-sample t-test.
type WelchT struct {
	T      float64
	DF     float64
	P      float64 // two-sided
	MeanA  float64
	MeanB  float64
	DeltaM float64 // MeanA - MeanB
}

// WelchTTest compares the means of two samples without assuming equal
// variances. Used in the Appendix A analysis to show the ZIP-poverty
// difference between targeted race groups is significant before matching.
func WelchTTest(a, b []float64) WelchT {
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	res := WelchT{MeanA: ma, MeanB: mb, DeltaM: ma - mb}
	if se2 <= 0 || na < 2 || nb < 2 {
		res.T, res.DF, res.P = math.NaN(), math.NaN(), math.NaN()
		return res
	}
	res.T = (ma - mb) / math.Sqrt(se2)
	res.DF = se2 * se2 / ((va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1)))
	res.P = TTestPValue(res.T, res.DF)
	return res
}
