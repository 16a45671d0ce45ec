package stats

import (
	"errors"
	"fmt"
	"math"
)

// LogitResult holds a fitted logistic regression. The paper uses logistic
// regressions in two roles: to find latent demographic directions in the
// StyleGAN activation space (§5.4, where the fitted coefficient vector *is*
// the direction), and — in our platform substrate — as the estimated-action-
// rate model trained on engagement logs (§2.1).
type LogitResult struct {
	Names      []string
	Coef       []float64 // Coef[0] is the intercept
	Iterations int
	Converged  bool
	LogLik     float64
	N          int
}

// Predict returns P(y=1 | x) under the fitted model. x excludes the
// intercept (one feature per non-intercept name).
func (r *LogitResult) Predict(x []float64) float64 {
	if len(x) != len(r.Coef)-1 {
		panic(fmt.Sprintf("stats: logit predict with %d features, model has %d", len(x), len(r.Coef)-1))
	}
	z := r.Coef[0]
	for i, v := range x {
		z += r.Coef[i+1] * v
	}
	return Sigmoid(z)
}

// Sigmoid is the standard logistic function, clamped to avoid overflow.
func Sigmoid(z float64) float64 {
	switch {
	case z > 35:
		return 1
	case z < -35:
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// LogitOptions configures Logit.
type LogitOptions struct {
	MaxIter int     // default 50
	Tol     float64 // convergence tolerance on max |Δβ|, default 1e-8
	Ridge   float64 // L2 penalty λ (0 disables); stabilises separable data
}

// ErrNoVariation is returned when the response is all-0 or all-1.
var ErrNoVariation = errors.New("stats: logistic response has no variation")

// ErrNonFinite is returned when the design holds a NaN or an infinity.
var ErrNonFinite = errors.New("stats: non-finite regressor")

// designIndex is the sparsity pattern of a design: for every row, the indexes
// of its non-zero entries.
type designIndex struct {
	idx   []int32 // the rows' index lists, end to end
	start []int   // row i's list is idx[start[i]:start[i+1]]
}

// indexDesign scans x once: it refuses a NaN or ±Inf entry, naming the first
// (left in, one would surface from the Newton step as a matrix that is "not
// positive definite"; and a finite design is what lets accumulate skip
// zeros), and records where the non-zero entries are. The index is sized for
// a design without zeros — half the design's bytes, for the length of the fit
// — so that filling it never grows or branches.
func indexDesign(names []string, x *Matrix) (*designIndex, error) {
	d := &designIndex{idx: make([]int32, len(x.Data)), start: make([]int, x.Rows+1)}
	k := 0
	for i := 0; i < x.Rows; i++ {
		for a, v := range x.Row(i) {
			if v-v != 0 { // NaN or ±Inf
				return nil, fmt.Errorf("%w: row %d, column %q is %v", ErrNonFinite, i, names[a], v)
			}
			d.idx[k] = int32(a)
			if v != 0 {
				k++
			}
		}
		d.start[i+1] = k
	}
	return d, nil
}

func (d *designIndex) row(i int) []int32 { return d.idx[d.start[i]:d.start[i+1]] }

// accumulate adds one observation to the Newton sums: r·x̃ to grad and w·x̃x̃ᵀ
// to the upper triangle of h, where x̃ = (1, row) and nz
// indexes row's non-zero entries. Entries that are exactly ±0 are skipped,
// which leaves every sum bit for bit what the full loop gives: each
// accumulator starts at +0 and can never become −0 by addition; under
// round-to-nearest s + (±0) = s for every other s; and r·va and w·va·vb are
// exactly ±0 whenever va or vb is and the rest are finite (indexDesign).
// Products that merely underflow to zero are not skipped, and the addends
// that remain arrive in the same order. A row without zeros takes the
// straight loop: an index list only slows it down.
func accumulate(grad []float64, h *Matrix, row []float64, nz []int32, r, w float64) {
	h0 := h.Row(0)
	h0[0] += w
	grad[0] += r
	if len(nz) == len(row) {
		for a, va := range row {
			grad[a+1] += r * va
			h0[a+1] += w * va
			ha := h.Row(a + 1)
			for b := a; b < len(row); b++ {
				ha[b+1] += w * va * row[b]
			}
		}
		return
	}
	for k, a := range nz {
		va := row[a]
		grad[a+1] += r * va
		h0[a+1] += w * va
		ha := h.Row(int(a) + 1)
		for _, b := range nz[k:] {
			ha[b+1] += w * va * row[b]
		}
	}
}

// mirrorUpper copies the upper triangle of the square h onto its lower one.
func mirrorUpper(h *Matrix) {
	for a := 0; a < h.Rows; a++ {
		for b := a + 1; b < h.Cols; b++ {
			h.Set(b, a, h.At(a, b))
		}
	}
}

// Logit fits P(y=1|x) = σ(β₀ + β·x) by iteratively reweighted least squares
// (Newton-Raphson on the log-likelihood). y entries must be 0 or 1. names
// labels the columns of x; an intercept is always included.
func Logit(names []string, x *Matrix, y []float64, opt LogitOptions) (*LogitResult, error) {
	if len(names) != x.Cols {
		return nil, fmt.Errorf("stats: %d names for %d columns", len(names), x.Cols)
	}
	n, p := x.Rows, x.Cols+1
	if len(y) != n {
		return nil, fmt.Errorf("stats: %d responses for %d rows", len(y), n)
	}
	var ones, zeros int
	for _, v := range y {
		switch v {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			return nil, fmt.Errorf("stats: logistic response must be 0/1, got %v", v)
		}
	}
	if ones == 0 || zeros == 0 {
		return nil, ErrNoVariation
	}
	nz, err := indexDesign(names, x)
	if err != nil {
		return nil, err
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 50
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}

	beta := make([]float64, p)
	beta[0] = math.Log(float64(ones) / float64(zeros)) // start at the base-rate intercept
	mu := make([]float64, n)
	grad := make([]float64, p)
	hess := NewMatrix(p, p)

	res := &LogitResult{
		Names: append([]string{"Intercept"}, names...),
		N:     n,
	}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		res.Iterations = iter
		// Gradient and Hessian of the penalized log-likelihood.
		for j := range grad {
			grad[j] = 0
		}
		for i := range hess.Data {
			hess.Data[i] = 0
		}
		for i := 0; i < n; i++ {
			row := x.Row(i)
			z := beta[0]
			for j, v := range row {
				z += beta[j+1] * v
			}
			m := Sigmoid(z)
			mu[i] = m
			w := m * (1 - m)
			if w < 1e-10 {
				w = 1e-10
			}
			accumulate(grad, hess, row, nz.row(i), y[i]-m, w)
		}
		// Mirror and apply ridge (intercept unpenalized).
		mirrorUpper(hess)
		if opt.Ridge > 0 {
			for j := 1; j < p; j++ {
				grad[j] -= opt.Ridge * beta[j]
				hess.Set(j, j, hess.At(j, j)+opt.Ridge)
			}
		}
		step, err := hess.SymSolve(grad)
		if err != nil {
			return nil, fmt.Errorf("stats: logit Newton step: %w", err)
		}
		var maxStep float64
		for j := range beta {
			// Damp very large steps to keep separable problems stable.
			if step[j] > 10 {
				step[j] = 10
			} else if step[j] < -10 {
				step[j] = -10
			}
			beta[j] += step[j]
			if a := math.Abs(step[j]); a > maxStep {
				maxStep = a
			}
		}
		if maxStep < opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Coef = beta
	// Final log-likelihood.
	var ll float64
	for i := 0; i < n; i++ {
		row := x.Row(i)
		z := beta[0]
		for j, v := range row {
			z += beta[j+1] * v
		}
		m := Sigmoid(z)
		if m < 1e-12 {
			m = 1e-12
		} else if m > 1-1e-12 {
			m = 1 - 1e-12
		}
		if y[i] == 1 {
			ll += math.Log(m)
		} else {
			ll += math.Log(1 - m)
		}
	}
	res.LogLik = ll
	return res, nil
}

// TwoProportionZ holds a two-proportion z-test: are two ads' delivery
// fractions (e.g. %Black with a white vs a Black face) different beyond
// binomial noise? This is the per-pair significance check behind contrasts
// like Figure 1.
type TwoProportionZ struct {
	P1, P2 float64
	Z      float64
	P      float64 // two-sided
}

// TwoProportionZTest compares successes1/n1 against successes2/n2 under the
// pooled-variance normal approximation.
func TwoProportionZTest(successes1, n1, successes2, n2 int) (TwoProportionZ, error) {
	if n1 <= 0 || n2 <= 0 {
		return TwoProportionZ{}, fmt.Errorf("stats: sample sizes must be positive (%d, %d)", n1, n2)
	}
	if successes1 < 0 || successes1 > n1 || successes2 < 0 || successes2 > n2 {
		return TwoProportionZ{}, fmt.Errorf("stats: successes out of range")
	}
	p1 := float64(successes1) / float64(n1)
	p2 := float64(successes2) / float64(n2)
	pooled := float64(successes1+successes2) / float64(n1+n2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(n1) + 1/float64(n2)))
	res := TwoProportionZ{P1: p1, P2: p2}
	if se == 0 {
		res.Z, res.P = math.NaN(), math.NaN()
		return res, nil
	}
	res.Z = (p1 - p2) / se
	res.P = 2 * NormalCDF(-math.Abs(res.Z))
	return res, nil
}
