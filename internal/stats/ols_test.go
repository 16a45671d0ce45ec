package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOLSExactRecovery(t *testing.T) {
	// Noiseless data: OLS must recover the generating coefficients exactly
	// and report R² = 1.
	rng := rand.New(rand.NewSource(1))
	n := 50
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 3 + 2*a - 1.5*b
	}
	res, err := OLS([]string{"a", "b"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1.5}
	for i, w := range want {
		if !almostEqual(res.Coef[i], w, 1e-9) {
			t.Errorf("coef[%d] = %v, want %v", i, res.Coef[i], w)
		}
	}
	if !almostEqual(res.R2, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", res.R2)
	}
}

func TestOLSRecoveryUnderNoiseProperty(t *testing.T) {
	// Property: with plentiful data and modest noise, estimates land within
	// 5 standard errors of truth and p-values for strong effects are tiny.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		x := NewMatrix(n, 2)
		y := make([]float64, n)
		b0, b1, b2 := rng.NormFloat64(), 1+rng.Float64(), -1-rng.Float64()
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			y[i] = b0 + b1*a + b2*b + 0.3*rng.NormFloat64()
		}
		res, err := OLS([]string{"a", "b"}, x, y)
		if err != nil {
			return false
		}
		truth := []float64{b0, b1, b2}
		for i, w := range truth {
			if math.Abs(res.Coef[i]-w) > 5*res.StdErr[i] {
				return false
			}
		}
		return res.PValue[1] < 0.001 && res.PValue[2] < 0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOLSPureNoiseInsignificant(t *testing.T) {
	// A regressor unrelated to y should be non-significant most of the time;
	// check the p-value is not degenerate.
	rng := rand.New(rand.NewSource(42))
	n := 200
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		y[i] = rng.NormFloat64()
	}
	res, err := OLS([]string{"noise"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.PValue[1]; p < 0.01 {
		t.Errorf("pure-noise regressor p = %v, suspiciously significant", p)
	}
	if res.R2 > 0.1 {
		t.Errorf("pure-noise R² = %v", res.R2)
	}
}

func TestOLSScaleEquivariance(t *testing.T) {
	// Property: scaling a regressor by c scales its coefficient by 1/c and
	// leaves t statistics and R² unchanged.
	rng := rand.New(rand.NewSource(5))
	n := 120
	x1 := NewMatrix(n, 1)
	x2 := NewMatrix(n, 1)
	y := make([]float64, n)
	const c = 10.0
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x1.Set(i, 0, v)
		x2.Set(i, 0, c*v)
		y[i] = 1 + 2*v + 0.5*rng.NormFloat64()
	}
	r1, err := OLS([]string{"v"}, x1, y)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OLS([]string{"v"}, x2, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r1.Coef[1], c*r2.Coef[1], 1e-8) {
		t.Errorf("scale equivariance: %v vs %v", r1.Coef[1], c*r2.Coef[1])
	}
	if !almostEqual(r1.TStat[1], r2.TStat[1], 1e-8) {
		t.Errorf("t not invariant: %v vs %v", r1.TStat[1], r2.TStat[1])
	}
	if !almostEqual(r1.R2, r2.R2, 1e-12) {
		t.Errorf("R² not invariant: %v vs %v", r1.R2, r2.R2)
	}
}

func TestOLSResidualsOrthogonalToDesign(t *testing.T) {
	// Property: OLS residuals are orthogonal to every regressor column and
	// sum to zero (with intercept).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		x := NewMatrix(n, 3)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = rng.NormFloat64() * 2
		}
		res, err := OLS([]string{"a", "b", "c"}, x, y)
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range res.Residuals {
			sum += r
		}
		if math.Abs(sum) > 1e-7 {
			return false
		}
		for j := 0; j < 3; j++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += x.At(i, j) * res.Residuals[i]
			}
			if math.Abs(dot) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOLSErrors(t *testing.T) {
	x := NewMatrix(3, 3)
	if _, err := OLS([]string{"a", "b", "c"}, x, []float64{1, 2, 3}); err == nil {
		t.Error("n <= p: want error")
	}
	if _, err := OLS([]string{"a"}, NewMatrix(5, 2), make([]float64, 5)); err == nil {
		t.Error("name count mismatch: want error")
	}
	if _, err := OLS([]string{"a", "b"}, NewMatrix(5, 2), make([]float64, 4)); err == nil {
		t.Error("y length mismatch: want error")
	}
}

func TestOLSAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 40
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		y[i] = 2 + 5*v + 0.1*rng.NormFloat64()
	}
	res, err := OLS([]string{"slope"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := res.Coefficient("slope"); !ok || !almostEqual(c, 5, 0.2) {
		t.Errorf("Coefficient(slope) = %v, %v", c, ok)
	}
	if _, ok := res.Coefficient("missing"); ok {
		t.Error("Coefficient(missing) should report !ok")
	}
	if !res.Significant("slope", 0.001) {
		t.Error("strong slope should be significant")
	}
	pred, err := res.Predict([]float64{1, 0})
	if err != nil || !almostEqual(pred, res.Coef[0], 1e-12) {
		t.Errorf("Predict at x=0: %v, %v", pred, err)
	}
	if _, err := res.Predict([]float64{1}); err == nil {
		t.Error("short predict vector: want error")
	}
	if s := res.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestOLSNoIntercept(t *testing.T) {
	// Through-origin fit: y = 2x exactly, with the design used as given.
	n := 20
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i+1))
		y[i] = 2 * float64(i+1)
	}
	res, err := olsDesign([]string{"x"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coef) != 1 || !almostEqual(res.Coef[0], 2, 1e-10) {
		t.Errorf("coef = %v", res.Coef)
	}
}

func TestOLSCollinearFallback(t *testing.T) {
	// Perfectly collinear columns: the ridge fallback should still produce a
	// finite fit rather than an error.
	n := 30
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		x.Set(i, 1, 2*v) // exact collinearity
		y[i] = v + 0.1*rng.NormFloat64()
	}
	res, err := OLS([]string{"a", "a2"}, x, y)
	if err != nil {
		t.Fatalf("collinear fit: %v", err)
	}
	for _, c := range res.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("non-finite coefficient %v", c)
		}
	}
}

func TestRobustSEMatchesClassicalUnderHomoskedasticity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 2000
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 1 + a - b + rng.NormFloat64()
	}
	res, err := OLS([]string{"a", "b"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := res.RobustSE(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range robust {
		ratio := robust[j] / res.StdErr[j]
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("coef %d: robust/classical SE ratio %v under homoskedasticity", j, ratio)
		}
	}
}

func TestRobustSEGrowsUnderHeteroskedasticity(t *testing.T) {
	// Error variance proportional to x²: classical SEs understate the slope
	// uncertainty; robust SEs must be clearly larger.
	rng := rand.New(rand.NewSource(22))
	n := 3000
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		y[i] = 2*v + 2*math.Abs(v)*rng.NormFloat64()
	}
	res, err := OLS([]string{"v"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := res.RobustSE(x)
	if err != nil {
		t.Fatal(err)
	}
	if robust[1] < 1.2*res.StdErr[1] {
		t.Errorf("slope robust SE %v vs classical %v; expected clear inflation", robust[1], res.StdErr[1])
	}
}

func TestRobustSEValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 50
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		y[i] = rng.NormFloat64()
	}
	res, err := OLS([]string{"v"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.RobustSE(NewMatrix(n, 3)); err == nil {
		t.Error("mismatched design: want error")
	}
}
