package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// MixedLMResult holds a fitted random-intercept linear mixed model. Table 5
// fits exactly this shape: delivery fraction regressed on an implied-identity
// indicator, with a separate (random) intercept per job type.
type MixedLMResult struct {
	Names  []string // fixed-effect names, Names[0] == "Intercept"
	Coef   []float64
	StdErr []float64
	TStat  []float64
	PValue []float64

	GroupVar    float64 // τ², variance of the random intercepts
	ResidualVar float64 // σ²
	Theta       float64 // τ²/σ² variance ratio chosen by REML

	GroupNames      []string
	GroupIntercepts []float64 // BLUPs of the random intercepts, aligned with GroupNames

	// AdjR2 is the OLS-style adjusted R² of the fixed-effects part, computed
	// from fixed-effect fitted values. Table 5 reports this quantity; it can
	// be negative when the fixed effect explains essentially nothing (as the
	// paper finds for the gender models IV-VI).
	AdjR2 float64
	R2    float64
	N     int
	DF    int
}

// Coefficient returns the fixed-effect coefficient for the named variable.
func (r *MixedLMResult) Coefficient(name string) (float64, bool) {
	return named(r.Names, r.Coef, name)
}

// PValueOf returns the p-value for the named fixed effect.
func (r *MixedLMResult) PValueOf(name string) (float64, bool) {
	return named(r.Names, r.PValue, name)
}

// String renders the fit in the shape of one Table 5 column.
func (r *MixedLMResult) String() string {
	var b strings.Builder
	for i, n := range r.Names {
		fmt.Fprintf(&b, "%-16s %8.3f%s\n", n, r.Coef[i], SignificanceStars(r.PValue[i]))
	}
	fmt.Fprintf(&b, "%-16s %8.3f\n", "Adj. R²", r.AdjR2)
	fmt.Fprintf(&b, "groups=%d  τ²=%.4g  σ²=%.4g  n=%d\n", len(r.GroupNames), r.GroupVar, r.ResidualVar, r.N)
	return b.String()
}

// ErrNeedGroups is returned when fewer than two groups are supplied.
var ErrNeedGroups = errors.New("stats: mixed model needs at least two groups")

// MixedLM fits y = X·β + u_group + ε with u_group ~ N(0, τ²) i.i.d. per
// group and ε ~ N(0, σ²), by profiled REML over the variance ratio
// θ = τ²/σ². X must not include an intercept column; one is prepended. For a
// single random intercept the per-group covariance V_g = I + θ·11ᵀ has the
// closed-form inverse I − θ/(1+θ·n_g)·11ᵀ, so each REML evaluation is O(n·p²).
func MixedLM(names []string, x *Matrix, y []float64, groups []string) (*MixedLMResult, error) {
	if len(names) != x.Cols {
		return nil, fmt.Errorf("stats: %d names for %d columns", len(names), x.Cols)
	}
	n := x.Rows
	if len(y) != n || len(groups) != n {
		return nil, fmt.Errorf("stats: rows=%d y=%d groups=%d must match", n, len(y), len(groups))
	}
	// Build the intercept-augmented design and group index.
	p := x.Cols + 1
	design := withIntercept(x)
	if n <= p {
		return nil, ErrTooFewObservations
	}
	groupIdx := map[string][]int{}
	for i, g := range groups {
		groupIdx[g] = append(groupIdx[g], i)
	}
	if len(groupIdx) < 2 {
		return nil, ErrNeedGroups
	}
	groupNames := make([]string, 0, len(groupIdx))
	for g := range groupIdx {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)

	// reml evaluates the (negative) restricted log-likelihood at a given θ,
	// returning the GLS pieces so the optimum fit can be reused.
	type fit struct {
		negLL  float64
		beta   []float64
		aInv   *Matrix
		sigma2 float64
	}
	eval := func(theta float64) (fit, error) {
		a := NewMatrix(p, p)     // Σ Xᵀ V⁻¹ X
		b := make([]float64, p)  // Σ Xᵀ V⁻¹ y
		var logDetV float64      // Σ log|V_g|
		xc := make([]float64, p) // per-group column sums of X
		for _, g := range groupNames {
			idx := groupIdx[g]
			ng := float64(len(idx))
			shrink := theta / (1 + theta*ng)
			logDetV += math.Log(1 + theta*ng)
			for j := range xc {
				xc[j] = 0
			}
			var ysum float64
			for _, i := range idx {
				row := design.Row(i)
				yi := y[i]
				ysum += yi
				for j, v := range row {
					xc[j] += v
					b[j] += v * yi
					ar := a.Row(j)
					for k := j; k < p; k++ {
						ar[k] += v * row[k]
					}
				}
			}
			// Subtract the rank-one shrink terms.
			for j := 0; j < p; j++ {
				b[j] -= shrink * xc[j] * ysum
				ar := a.Row(j)
				for k := j; k < p; k++ {
					ar[k] -= shrink * xc[j] * xc[k]
				}
			}
		}
		for j := 0; j < p; j++ {
			for k := j + 1; k < p; k++ {
				a.Set(k, j, a.At(j, k))
			}
		}
		la, err := a.Cholesky()
		if err != nil {
			return fit{}, err
		}
		beta, err := CholSolve(la, b)
		if err != nil {
			return fit{}, err
		}
		// Weighted residual sum of squares: yᵀV⁻¹y − βᵀb.
		var yvy float64
		for _, g := range groupNames {
			idx := groupIdx[g]
			ng := float64(len(idx))
			shrink := theta / (1 + theta*ng)
			var ysum, yss float64
			for _, i := range idx {
				ysum += y[i]
				yss += y[i] * y[i]
			}
			yvy += yss - shrink*ysum*ysum
		}
		rssV := yvy - Dot(beta, b)
		if rssV <= 0 {
			rssV = 1e-12
		}
		df := float64(n - p)
		sigma2 := rssV / df
		var logDetA float64
		for j := 0; j < p; j++ {
			logDetA += 2 * math.Log(la.At(j, j))
		}
		negLL := 0.5 * (logDetV + df*math.Log(sigma2) + logDetA + df)
		aInv, err := a.SymInverse()
		if err != nil {
			return fit{}, err
		}
		return fit{negLL: negLL, beta: beta, aInv: aInv, sigma2: sigma2}, nil
	}

	// Coarse log-spaced grid over θ, then golden-section refinement.
	best := math.Inf(1)
	bestTheta := 0.0
	grid := []float64{0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 100}
	for _, th := range grid {
		f, err := eval(th)
		if err != nil {
			continue
		}
		if f.negLL < best {
			best = f.negLL
			bestTheta = th
		}
	}
	lo, hi := bestTheta/4, bestTheta*4
	if bestTheta == 0 {
		lo, hi = 0, 1e-3
	}
	const phi = 0.6180339887498949
	a1 := hi - phi*(hi-lo)
	b1 := lo + phi*(hi-lo)
	fa, errA := eval(a1)
	fb, errB := eval(b1)
	for iter := 0; iter < 60 && errA == nil && errB == nil && hi-lo > 1e-9*(1+hi); iter++ {
		if fa.negLL < fb.negLL {
			hi, b1, fb = b1, a1, fa
			a1 = hi - phi*(hi-lo)
			fa, errA = eval(a1)
		} else {
			lo, a1, fa = a1, b1, fb
			b1 = lo + phi*(hi-lo)
			fb, errB = eval(b1)
		}
	}
	theta := bestTheta
	if errA == nil && fa.negLL < best {
		best, theta = fa.negLL, a1
	}
	if errB == nil && fb.negLL < best {
		theta = b1
	}
	final, err := eval(theta)
	if err != nil {
		return nil, err
	}

	res := &MixedLMResult{
		Names:       append([]string{"Intercept"}, names...),
		Coef:        final.beta,
		StdErr:      make([]float64, p),
		TStat:       make([]float64, p),
		PValue:      make([]float64, p),
		Theta:       theta,
		ResidualVar: final.sigma2,
		GroupVar:    theta * final.sigma2,
		GroupNames:  groupNames,
		N:           n,
		DF:          n - p,
	}
	for j := 0; j < p; j++ {
		se := math.Sqrt(final.sigma2 * final.aInv.At(j, j))
		res.StdErr[j] = se
		if se > 0 {
			res.TStat[j] = final.beta[j] / se
			res.PValue[j] = TTestPValue(res.TStat[j], float64(res.DF))
		} else {
			res.TStat[j] = math.NaN()
			res.PValue[j] = math.NaN()
		}
	}

	// BLUPs of the random intercepts: û_g = θ·n_g/(1+θ·n_g) · mean residual.
	res.GroupIntercepts = make([]float64, len(groupNames))
	fitted, _ := design.MulVec(final.beta)
	for gi, g := range groupNames {
		idx := groupIdx[g]
		var rsum float64
		for _, i := range idx {
			rsum += y[i] - fitted[i]
		}
		ng := float64(len(idx))
		res.GroupIntercepts[gi] = theta * ng / (1 + theta*ng) * (rsum / ng)
	}

	// Fixed-effects R² / adjusted R² (Table 5's "Adj. R²" row).
	var rss, tss, ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)
	for i := range y {
		d := y[i] - fitted[i]
		rss += d * d
		dy := y[i] - ybar
		tss += dy * dy
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(n-p)
	}
	return res, nil
}
