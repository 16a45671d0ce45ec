package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
	if got := StdDev(xs); !almostEqual(got*got, 32.0/7, 1e-9) {
		t.Errorf("StdDev² = %v", got*got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty: want NaN")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5+rng.Intn(30))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			v := Quantile(xs, math.Min(q, 1))
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelchTTest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 1 + rng.NormFloat64()
	}
	res := WelchTTest(a, b)
	if res.P > 1e-6 {
		t.Errorf("clear difference, p = %v", res.P)
	}
	if res.DeltaM > -0.5 {
		t.Errorf("DeltaM = %v, want ≈ -1", res.DeltaM)
	}
	// Identical samples: no significance.
	same := WelchTTest(a, a)
	if !almostEqual(same.T, 0, 1e-9) {
		t.Errorf("self-test T = %v", same.T)
	}
	// Degenerate sizes yield NaN, not panic.
	deg := WelchTTest([]float64{1}, []float64{2})
	if !math.IsNaN(deg.P) {
		t.Errorf("degenerate p = %v, want NaN", deg.P)
	}
}

func TestBootstrapMeanCICovers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := make([]float64, 200)
	for i := range data {
		data[i] = 5 + rng.NormFloat64()
	}
	lo, hi, err := BootstrapMeanCI(data, 500, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate interval [%v, %v]", lo, hi)
	}
	if lo > 5 || hi < 5 {
		t.Errorf("95%% CI [%v, %v] misses the true mean 5", lo, hi)
	}
	// Interval width should be roughly 2·1.96·σ/√n ≈ 0.28.
	if w := hi - lo; w < 0.1 || w > 0.6 {
		t.Errorf("CI width %v implausible", w)
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	if _, _, err := BootstrapMeanCI([]float64{1}, 100, 0.95, 1); err == nil {
		t.Error("single observation: want error")
	}
	if _, _, err := BootstrapMeanCI([]float64{1, 2}, 5, 0.95, 1); err == nil {
		t.Error("too few resamples: want error")
	}
	if _, _, err := BootstrapMeanCI([]float64{1, 2}, 100, 1.5, 1); err == nil {
		t.Error("bad confidence: want error")
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	lo1, hi1, _ := BootstrapMeanCI(data, 200, 0.9, 9)
	lo2, hi2, _ := BootstrapMeanCI(data, 200, 0.9, 9)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("same-seed bootstrap should be deterministic")
	}
}
