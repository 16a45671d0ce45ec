package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogitRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4000
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	b0, b1, b2 := -0.5, 1.2, -0.8
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		p := Sigmoid(b0 + b1*a + b2*b)
		if rng.Float64() < p {
			y[i] = 1
		}
	}
	res, err := Logit([]string{"a", "b"}, x, y, LogitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	truth := []float64{b0, b1, b2}
	for i, w := range truth {
		if math.Abs(res.Coef[i]-w) > 0.15 {
			t.Errorf("coef[%d] = %v, want ≈ %v", i, res.Coef[i], w)
		}
	}
}

func TestLogitPredictMatchesBaseRate(t *testing.T) {
	// With no informative features, the intercept-only prediction should be
	// close to the empirical base rate.
	rng := rand.New(rand.NewSource(12))
	n := 1000
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		if rng.Float64() < 0.3 {
			y[i] = 1
		}
	}
	res, err := Logit([]string{"noise"}, x, y, LogitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rate := Mean(y)
	if p := res.Predict([]float64{0}); math.Abs(p-rate) > 0.05 {
		t.Errorf("base-rate prediction %v vs empirical %v", p, rate)
	}
}

func TestLogitNoVariation(t *testing.T) {
	x := NewMatrix(10, 1)
	y := make([]float64, 10) // all zeros
	if _, err := Logit([]string{"a"}, x, y, LogitOptions{}); !errors.Is(err, ErrNoVariation) {
		t.Errorf("want ErrNoVariation, got %v", err)
	}
	for i := range y {
		y[i] = 1
	}
	if _, err := Logit([]string{"a"}, x, y, LogitOptions{}); !errors.Is(err, ErrNoVariation) {
		t.Errorf("want ErrNoVariation, got %v", err)
	}
}

func TestLogitRejectsNonBinary(t *testing.T) {
	x := NewMatrix(3, 1)
	if _, err := Logit([]string{"a"}, x, []float64{0, 1, 0.5}, LogitOptions{}); err == nil {
		t.Error("non-binary response: want error")
	}
}

func TestLogitSeparableDataWithRidge(t *testing.T) {
	// Perfectly separable data diverges under plain Newton; ridge keeps it
	// finite. The latent-direction technique relies on this (§5.4: labels
	// from a deterministic classifier are often separable in activation
	// space).
	n := 100
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) - float64(n)/2
		x.Set(i, 0, v)
		if v > 0 {
			y[i] = 1
		}
	}
	res, err := Logit([]string{"v"}, x, y, LogitOptions{Ridge: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("non-finite coefficient %v", c)
		}
	}
	if res.Coef[1] <= 0 {
		t.Errorf("direction coefficient should be positive, got %v", res.Coef[1])
	}
}

func TestLogitDirectionSignProperty(t *testing.T) {
	// Property: the fitted direction has positive inner product with the
	// generating direction (for any random direction).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 4
		truth := make([]float64, dim)
		for j := range truth {
			truth[j] = rng.NormFloat64()
		}
		n := 800
		x := NewMatrix(n, dim)
		y := make([]float64, n)
		ones := 0
		for i := 0; i < n; i++ {
			var z float64
			for j := 0; j < dim; j++ {
				v := rng.NormFloat64()
				x.Set(i, j, v)
				z += truth[j] * v
			}
			if rng.Float64() < Sigmoid(z) {
				y[i] = 1
				ones++
			}
		}
		if ones == 0 || ones == n {
			return true // degenerate draw; skip
		}
		res, err := Logit(make([]string, dim), x, y, LogitOptions{Ridge: 0.1})
		if err != nil {
			return false
		}
		return Dot(res.Coef[1:], truth) > 0
	}
	names := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = "x"
		}
		return out
	}
	_ = names
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestLogitErrors(t *testing.T) {
	if _, err := Logit([]string{"a", "b"}, NewMatrix(5, 1), make([]float64, 5), LogitOptions{}); err == nil {
		t.Error("name mismatch: want error")
	}
	if _, err := Logit([]string{"a"}, NewMatrix(5, 1), make([]float64, 3), LogitOptions{}); err == nil {
		t.Error("y length mismatch: want error")
	}
}

func TestSigmoidClamps(t *testing.T) {
	if Sigmoid(100) != 1 || Sigmoid(-100) != 0 {
		t.Error("extreme values should clamp")
	}
	if !almostEqual(Sigmoid(0), 0.5, 1e-15) {
		t.Error("Sigmoid(0) != 0.5")
	}
}

func TestTwoProportionZTest(t *testing.T) {
	// Clear difference: 560/1000 vs 290/1000.
	res, err := TwoProportionZTest(560, 1000, 290, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-10 {
		t.Errorf("clear difference p = %v", res.P)
	}
	if res.P1 != 0.56 || res.P2 != 0.29 {
		t.Errorf("proportions %v, %v", res.P1, res.P2)
	}
	// No difference: p should be large.
	same, err := TwoProportionZTest(300, 1000, 310, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if same.P < 0.1 {
		t.Errorf("near-identical proportions p = %v", same.P)
	}
	// Degenerate pooled variance (all successes) yields NaN, not panic.
	deg, err := TwoProportionZTest(10, 10, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(deg.P) {
		t.Errorf("degenerate p = %v, want NaN", deg.P)
	}
	if _, err := TwoProportionZTest(1, 0, 1, 2); err == nil {
		t.Error("zero n: want error")
	}
	if _, err := TwoProportionZTest(5, 2, 1, 2); err == nil {
		t.Error("successes > n: want error")
	}
}
