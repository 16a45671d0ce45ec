package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.9750021},
		{-1.96, 0.0249979},
		{1, 0.8413447},
		{-3, 0.0013499},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEqual(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileDomain(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v): want panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 {
		t.Error("I_0 should be 0")
	}
	if RegIncBeta(2, 3, 1) != 1 {
		t.Error("I_1 should be 1")
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got, want := RegIncBeta(2.5, 4, 0.3), 1-RegIncBeta(4, 2.5, 0.7); !almostEqual(got, want, 1e-12) {
		t.Errorf("symmetry: %v vs %v", got, want)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	f := func(seed int64) bool {
		a := 0.5 + float64(seed%7)
		b := 0.5 + float64((seed/7)%5)
		prev := -1.0
		for x := 0.05; x < 1; x += 0.05 {
			v := RegIncBeta(a, b, x)
			if v < prev || v < 0 || v > 1 {
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

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct{ tv, df, want float64 }{
		{0, 5, 0.5},
		{2.015, 5, 0.95},    // t_{0.95,5}
		{1.812, 10, 0.95},   // t_{0.95,10}
		{2.576, 1e6, 0.995}, // large df ≈ normal
		{-2.015, 5, 0.05},
	}
	for _, c := range cases {
		if got := StudentTCDF(c.tv, c.df); !almostEqual(got, c.want, 2e-3) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.tv, c.df, got, c.want)
		}
	}
	if got := StudentTCDF(math.Inf(1), 3); got != 1 {
		t.Errorf("CDF(+inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 3); got != 0 {
		t.Errorf("CDF(-inf) = %v", got)
	}
}

func TestTTestPValueSymmetric(t *testing.T) {
	f := func(raw uint8) bool {
		tv := float64(raw)/16 - 8
		df := 3 + float64(raw%40)
		p1 := TTestPValue(tv, df)
		p2 := TTestPValue(-tv, df)
		return almostEqual(p1, p2, 1e-12) && p1 >= 0 && p1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignificanceStars(t *testing.T) {
	cases := map[float64]string{
		0.0005: "***",
		0.005:  "**",
		0.03:   "*",
		0.2:    "",
		0.05:   "", // boundary: p<0.05 strictly
	}
	for p, want := range cases {
		if got := SignificanceStars(p); got != want {
			t.Errorf("stars(%v) = %q, want %q", p, got, want)
		}
	}
	if got := SignificanceStars(math.NaN()); got != "" {
		t.Errorf("stars(NaN) = %q", got)
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Worked example (m = 5): sorted p = .01, .02, .03, .04, .5.
	ps := []float64{0.04, 0.5, 0.01, 0.03, 0.02}
	qs := BenjaminiHochberg(ps)
	// q for p=.01 is min(.01·5/1, .02·5/2, .03·5/3, .04·5/4, .5·5/5) = .05.
	if !almostEqual(qs[2], 0.05, 1e-12) {
		t.Errorf("q(.01) = %v, want 0.05", qs[2])
	}
	// q for p=.5 is .5 (last rank).
	if !almostEqual(qs[1], 0.5, 1e-12) {
		t.Errorf("q(.5) = %v", qs[1])
	}
	// Monotone in p and never below the raw p.
	for i := range ps {
		if qs[i] < ps[i]-1e-15 {
			t.Errorf("q %v below p %v", qs[i], ps[i])
		}
		if qs[i] > 1 {
			t.Errorf("q %v above 1", qs[i])
		}
	}
	// NaNs pass through without disturbing the rest.
	withNaN := []float64{0.01, math.NaN(), 0.02}
	qn := BenjaminiHochberg(withNaN)
	if !math.IsNaN(qn[1]) {
		t.Error("NaN should stay NaN")
	}
	if qn[0] > qn[2] {
		t.Error("ordering violated around NaN")
	}
	if got := BenjaminiHochberg(nil); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestBenjaminiHochbergProperty(t *testing.T) {
	// Property: q-values are a monotone transform of p-values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := make([]float64, 3+rng.Intn(20))
		for i := range ps {
			ps[i] = rng.Float64()
		}
		qs := BenjaminiHochberg(ps)
		for i := range ps {
			for j := range ps {
				if ps[i] < ps[j] && qs[i] > qs[j]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNormalPower(t *testing.T) {
	// Zero shift: power equals the test size alpha.
	if got := NormalPower(0, 0.05); math.Abs(got-0.05) > 1e-10 {
		t.Errorf("NormalPower(0, 0.05) = %v, want 0.05", got)
	}
	// Textbook value: shift 2.8 at alpha 0.05 gives ≈ 80% power.
	if got := NormalPower(2.8016, 0.05); math.Abs(got-0.8) > 1e-3 {
		t.Errorf("NormalPower(2.8016, 0.05) = %v, want ≈ 0.80", got)
	}
	// Symmetric in the sign of the shift (two-sided test).
	if a, b := NormalPower(1.7, 0.05), NormalPower(-1.7, 0.05); math.Abs(a-b) > 1e-12 {
		t.Errorf("asymmetric power: %v vs %v", a, b)
	}
	// Monotone in the shift.
	prev := 0.0
	for _, s := range []float64{0.5, 1, 2, 4, 8} {
		p := NormalPower(s, 0.05)
		if p <= prev || p > 1 {
			t.Errorf("power %v at shift %v not increasing in (0,1]", p, s)
		}
		prev = p
	}
	defer func() {
		if recover() == nil {
			t.Error("alpha outside (0,1) should panic")
		}
	}()
	NormalPower(1, 0)
}
