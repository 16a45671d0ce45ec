package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// OLSResult holds a fitted ordinary-least-squares model in the shape the
// paper's regression tables report (§3.4): one coefficient per named
// explanatory variable with its standard error, t statistic, and two-sided
// p-value, plus R² and adjusted R².
type OLSResult struct {
	Names     []string  // column names, Names[0] == "Intercept" when fitted with intercept
	Coef      []float64 // estimated coefficients
	StdErr    []float64
	TStat     []float64
	PValue    []float64
	R2        float64
	AdjR2     float64
	N         int     // observations
	DF        int     // residual degrees of freedom
	Sigma2    float64 // residual variance estimate
	Residuals []float64
}

// Coefficient returns the coefficient for the named variable.
func (r *OLSResult) Coefficient(name string) (float64, bool) {
	return named(r.Names, r.Coef, name)
}

// PValueOf returns the p-value for the named variable.
func (r *OLSResult) PValueOf(name string) (float64, bool) {
	return named(r.Names, r.PValue, name)
}

// named returns the entry of vals at name's position in names.
func named(names []string, vals []float64, name string) (float64, bool) {
	if i := slices.Index(names, name); i >= 0 {
		return vals[i], true
	}
	return 0, false
}

// Significant reports whether the named variable's coefficient is
// statistically significant at the given level (e.g. 0.05).
func (r *OLSResult) Significant(name string, level float64) bool {
	p, ok := r.PValueOf(name)
	return ok && p < level
}

// Predict evaluates the fitted model at x, which must have one entry per
// name (including the leading 1 for the intercept if fitted that way).
func (r *OLSResult) Predict(x []float64) (float64, error) {
	if len(x) != len(r.Coef) {
		return 0, fmt.Errorf("stats: predict with %d features, model has %d", len(x), len(r.Coef))
	}
	return Dot(x, r.Coef), nil
}

// String renders the fit as a compact table resembling the paper's Table 4.
func (r *OLSResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %10s\n", "term", "coef", "stderr", "t", "p")
	for i, n := range r.Names {
		fmt.Fprintf(&b, "%-14s %10.4f %10.4f %8.2f %10.2g%s\n",
			n, r.Coef[i], r.StdErr[i], r.TStat[i], r.PValue[i], SignificanceStars(r.PValue[i]))
	}
	fmt.Fprintf(&b, "R² = %.3f  adj. R² = %.3f  n = %d\n", r.R2, r.AdjR2, r.N)
	return b.String()
}

// ErrTooFewObservations is returned when n ≤ p, leaving no residual degrees
// of freedom.
var ErrTooFewObservations = errors.New("stats: too few observations for the number of regressors")

// OLS fits y = X·β + ε by ordinary least squares. X must not include an
// intercept column; one is prepended automatically and reported under the
// name "Intercept", matching the presentation in the paper's tables. names
// labels the columns of X.
func OLS(names []string, x *Matrix, y []float64) (*OLSResult, error) {
	if len(names) != x.Cols {
		return nil, fmt.Errorf("stats: %d names for %d columns", len(names), x.Cols)
	}
	allNames := append([]string{"Intercept"}, names...)
	return olsDesign(allNames, withIntercept(x), y)
}

// withIntercept returns x with a column of ones prepended, the design of
// every fit that reports an "Intercept".
func withIntercept(x *Matrix) *Matrix {
	design := NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		row := design.Row(i)
		row[0] = 1
		copy(row[1:], x.Row(i))
	}
	return design
}

func olsDesign(names []string, x *Matrix, y []float64) (*OLSResult, error) {
	n, p := x.Rows, x.Cols
	if len(y) != n {
		return nil, fmt.Errorf("stats: %d responses for %d rows", len(y), n)
	}
	if n <= p {
		return nil, ErrTooFewObservations
	}
	xtx := x.XtX()
	xty, err := x.XtY(y)
	if err != nil {
		return nil, err
	}
	xtxInv, err := xtx.SymInverse()
	if err != nil {
		// Ridge fallback for near-singular designs, mirrored from SymSolve.
		r := xtx.Clone()
		eps := 1e-8 * (1 + r.maxDiag())
		for i := 0; i < p; i++ {
			r.Set(i, i, r.At(i, i)+eps)
		}
		if xtxInv, err = r.SymInverse(); err != nil {
			return nil, err
		}
	}
	beta, err := xtxInv.MulVec(xty)
	if err != nil {
		return nil, err
	}

	fitted, err := x.MulVec(beta)
	if err != nil {
		return nil, err
	}
	resid := make([]float64, n)
	var rss, tss, ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)
	for i := range y {
		resid[i] = y[i] - fitted[i]
		rss += resid[i] * resid[i]
		d := y[i] - ybar
		tss += d * d
	}
	df := n - p
	sigma2 := rss / float64(df)

	res := &OLSResult{
		Names:     names,
		Coef:      beta,
		StdErr:    make([]float64, p),
		TStat:     make([]float64, p),
		PValue:    make([]float64, p),
		N:         n,
		DF:        df,
		Sigma2:    sigma2,
		Residuals: resid,
	}
	for j := 0; j < p; j++ {
		se := math.Sqrt(sigma2 * xtxInv.At(j, j))
		res.StdErr[j] = se
		if se > 0 {
			res.TStat[j] = beta[j] / se
			res.PValue[j] = TTestPValue(res.TStat[j], float64(df))
		} else {
			res.TStat[j] = math.NaN()
			res.PValue[j] = math.NaN()
		}
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(df)
	} else {
		res.R2 = 0
		res.AdjR2 = 0
	}
	return res, nil
}

// RobustSE computes HC1 heteroskedasticity-robust standard errors for a
// fitted OLS model (White's sandwich estimator with the n/(n-p) small-sample
// correction). Delivery fractions have binomial variance that shrinks with
// an ad's impression count, so the homoskedastic SEs the tables report are
// approximate; robust SEs let the analysis check that significance
// conclusions survive.
//
// x must be the same regressor matrix (without intercept) the model was
// fitted on.
func (r *OLSResult) RobustSE(x *Matrix) ([]float64, error) {
	n, p := x.Rows, x.Cols+1
	if n != r.N || p != len(r.Coef) {
		return nil, fmt.Errorf("stats: design %dx%d does not match fitted model (n=%d, p=%d)", n, x.Cols, r.N, len(r.Coef))
	}
	design := withIntercept(x)
	xtxInv, err := design.XtX().SymInverse()
	if err != nil {
		return nil, err
	}
	// Meat: Σ eᵢ² xᵢxᵢᵀ.
	meat := NewMatrix(p, p)
	for i := 0; i < n; i++ {
		e2 := r.Residuals[i] * r.Residuals[i]
		row := design.Row(i)
		for a := 0; a < p; a++ {
			ma := meat.Row(a)
			va := row[a] * e2
			for b := a; b < p; b++ {
				ma[b] += va * row[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			meat.Set(b, a, meat.At(a, b))
		}
	}
	inner, err := xtxInv.Mul(meat)
	if err != nil {
		return nil, err
	}
	sandwich, err := inner.Mul(xtxInv)
	if err != nil {
		return nil, err
	}
	correction := float64(n) / float64(n-p)
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		out[j] = math.Sqrt(correction * sandwich.At(j, j))
	}
	return out, nil
}
