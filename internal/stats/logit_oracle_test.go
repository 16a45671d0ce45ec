package stats

import (
	"fmt"
	"math"
)

// The logistic fit as it stood before the accumulation learned to skip a
// row's exact zeros: every regressor pair of every row multiplied out. Kept verbatim (bodies untouched, only renamed) as
// this round's oracle for TestLogitSkipsZerosBitForBit; ROADMAP item 6 gives
// such a copy one round.

func denseLogit(names []string, x *Matrix, y []float64, opt LogitOptions) (*LogitResult, error) {
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
			r := y[i] - m
			grad[0] += r
			hr0 := hess.Row(0)
			hr0[0] += w
			for a, va := range row {
				grad[a+1] += r * va
				hr0[a+1] += w * va
				ha := hess.Row(a + 1)
				for b := a; b < len(row); b++ {
					ha[b+1] += w * va * row[b]
				}
			}
		}
		// Mirror and apply ridge (intercept unpenalized).
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				hess.Set(b, a, hess.At(a, b))
			}
		}
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
