package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// earShapedDesign draws a design with the sparsity pattern of the platform's
// eAR model (internal/platform/ear.go): five user features, six image
// features that are all zero for the tenth of rows without a person, their
// thirty products, a has-person flag, an age gap, and eleven one-hot job
// blocks of three — 76 columns of which a row fills about a third.
func earShapedDesign(rng *rand.Rand, n int) ([]string, *Matrix, []float64) {
	const users, imgs, jobs = 5, 6, 11
	const cols = users + imgs + users*imgs + 2 + 3*jobs
	names := make([]string, cols)
	truth := make([]float64, cols)
	for j := range names {
		names[j] = fmt.Sprint("f", j)
		truth[j] = 0.3 * rng.NormFloat64()
	}
	x := NewMatrix(n, cols)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		age := 0.2 + 0.8*rng.Float64()
		u := row[:users]
		u[0], u[1] = age, age*age
		if rng.Float64() < 0.5 {
			u[2] = 1
		} else if age > 0.6 {
			u[4] = 1
		}
		if rng.Float64() < 0.3 {
			u[3] = 1
		}
		if rng.Float64() >= 0.1 {
			img := row[users : users+imgs]
			for j := range img {
				img[j] = rng.NormFloat64()
			}
			if rng.Float64() < 0.7 {
				img[4] = 0 // no child pictured
			}
			for k, uv := range u {
				for j, iv := range img {
					row[users+imgs+k*imgs+j] = uv * iv
				}
			}
			row[users+imgs+users*imgs] = 1
			row[users+imgs+users*imgs+1] = math.Abs(age - rng.Float64())
			if rng.Float64() < 1.0/3 {
				job := row[cols-3*jobs+3*rng.Intn(jobs):]
				job[0], job[1], job[2] = 1, u[2], u[3]
			}
		}
		z := -1.0
		for j, v := range row {
			z += truth[j] * v
		}
		if rng.Float64() < Sigmoid(z) {
			y[i] = 1
		}
	}
	return names, x, y
}

// denseDesign draws a design without a single zero, the shape face.Train
// fits.
func denseDesign(rng *rand.Rand, n, cols int) ([]string, *Matrix, []float64) {
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprint("f", j)
	}
	x := NewMatrix(n, cols)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		z := 0.0
		for j := 0; j < cols; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			z += v / float64(j+1)
		}
		if rng.Float64() < Sigmoid(z) {
			y[i] = 1
		}
	}
	return names, x, y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertFitsAlike holds Logit and Inference to the dense oracle, bit for bit.
func assertFitsAlike(t *testing.T, names []string, x *Matrix, y []float64, opt LogitOptions) *LogitResult {
	t.Helper()
	want, err := denseLogit(names, x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Logit(names, x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Coef, want.Coef) || math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) ||
		got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("fit diverged from the dense accumulation:\n got %v loglik %v after %d\nwant %v loglik %v after %d",
			got.Coef, got.LogLik, got.Iterations, want.Coef, want.LogLik, want.Iterations)
	}
	wantInf, wantErr := denseInference(want, x)
	gotInf, err := got.Inference(x)
	if wantErr != nil {
		// A column of zeros leaves the unpenalized information singular.
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("inference error %v, the dense accumulation's %v", err, wantErr)
		}
		return got
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(gotInf.StdErr, wantInf.StdErr) || !sameBits(gotInf.ZStat, wantInf.ZStat) || !sameBits(gotInf.PValue, wantInf.PValue) {
		t.Fatalf("inference diverged from the dense accumulation:\n got %+v\nwant %+v", gotInf, wantInf)
	}
	return got
}

// TestLogitSkipsZerosBitForBit: skipping a row's exact zeros changes no bit of
// the fit or its inference — on an eAR-shaped design, on one with all-zero
// rows and columns and a column too small to square, on one with no zero at
// all, and whichever sign the zeros carry.
func TestLogitSkipsZerosBitForBit(t *testing.T) {
	ear := LogitOptions{Ridge: 3.0, MaxIter: 60} // as trainEAR fits
	t.Run("ear_shaped", func(t *testing.T) {
		names, x, y := earShapedDesign(rand.New(rand.NewSource(71)), 3000)
		assertFitsAlike(t, names, x, y, ear)
	})
	t.Run("zero_rows_and_columns", func(t *testing.T) {
		names, x, y := denseDesign(rand.New(rand.NewSource(72)), 600, 6)
		for i := 0; i < x.Rows; i += 5 {
			clear(x.Row(i))
		}
		assertFitsAlike(t, names, x, y, LogitOptions{Ridge: 1})
		for i := 0; i < x.Rows; i++ {
			x.Set(i, 2, 0)
		}
		assertFitsAlike(t, names, x, y, LogitOptions{Ridge: 1})
		// Non-zero, though its square underflows: not to be skipped.
		for i := 0; i < x.Rows; i++ {
			x.Set(i, 4, 1e-305*x.At(i, 4))
		}
		assertFitsAlike(t, names, x, y, LogitOptions{Ridge: 1})
	})
	t.Run("dense", func(t *testing.T) {
		names, x, y := denseDesign(rand.New(rand.NewSource(73)), 800, 5)
		assertFitsAlike(t, names, x, y, LogitOptions{})
	})
	t.Run("signed_zeros", func(t *testing.T) {
		rng := rand.New(rand.NewSource(74))
		names, x, y := earShapedDesign(rng, 1500)
		plus := assertFitsAlike(t, names, x, y, ear)
		negated := 0
		for i, v := range x.Data {
			if v == 0 && rng.Intn(2) == 0 {
				x.Data[i] = math.Copysign(0, -1)
				negated++
			}
		}
		if negated == 0 {
			t.Fatal("no zero to negate")
		}
		minus := assertFitsAlike(t, names, x, y, ear)
		if !sameBits(minus.Coef, plus.Coef) || math.Float64bits(minus.LogLik) != math.Float64bits(plus.LogLik) {
			t.Error("a design with -0.0 entries fits differently from the same design with +0.0")
		}
	})
}

// TestLogitRefusesNonFiniteRegressor: a NaN or an infinity in the design is
// refused by name, where it used to surface from the Newton step as a matrix
// "not positive definite (collinear design?)".
func TestLogitRefusesNonFiniteRegressor(t *testing.T) {
	names, clean, y := denseDesign(rand.New(rand.NewSource(75)), 200, 3)
	fit, err := Logit(names, clean, y, LogitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := clean.Clone()
		x.Set(17, 2, bad)
		_, err := Logit(names, x, y, LogitOptions{})
		if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), `row 17, column "f2"`) {
			t.Errorf("Logit with %v in the design: error %v, want ErrNonFinite naming row 17, column f2", bad, err)
		}
		if _, err := fit.Inference(x); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Inference with %v in the design: error %v, want ErrNonFinite", bad, err)
		}
	}
}

var sinkLogit *LogitResult

// BenchmarkLogit fits the two shapes the repository fits: the eAR's 12 000 ×
// 76 design, a third full, and the vision model's 4 000 × 12, full.
func BenchmarkLogit(b *testing.B) {
	b.Run("ear_shaped", func(b *testing.B) {
		names, x, y := earShapedDesign(rand.New(rand.NewSource(81)), 12000)
		benchLogit(b, names, x, y, LogitOptions{Ridge: 3.0, MaxIter: 60}) // as trainEAR fits
	})
	b.Run("dense", func(b *testing.B) {
		names, x, y := denseDesign(rand.New(rand.NewSource(82)), 4000, 12)
		benchLogit(b, names, x, y, LogitOptions{Ridge: 1.0}) // as face.Train fits
	})
}

func benchLogit(b *testing.B, names []string, x *Matrix, y []float64, opt LogitOptions) {
	nonZeros := 0
	for _, v := range x.Data {
		if v != 0 {
			nonZeros++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit, err := Logit(names, x, y, opt)
		if err != nil {
			b.Fatal(err)
		}
		sinkLogit = fit
	}
	b.ReportMetric(float64(nonZeros)/float64(x.Rows), "nonzero/row")
	b.ReportMetric(float64(sinkLogit.Iterations), "newton-steps")
}
