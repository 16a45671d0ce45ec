package stats

import (
	"math"
	"sort"
)

// NormalCDF returns P(Z ≤ x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the x with NormalCDF(x) = p, via the
// Acklam/Wichura-style rational approximation refined with one Newton step.
// Panics if p is outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile domain (0,1)")
	}
	// Beasley-Springer-Moro style initial estimate.
	var x float64
	if p < 0.02425 || p > 1-0.02425 {
		// Tail region.
		q := p
		sign := -1.0
		if p > 0.5 {
			q = 1 - p
			sign = 1.0
		}
		t := math.Sqrt(-2 * math.Log(q))
		x = sign * (t - (2.515517+0.802853*t+0.010328*t*t)/(1+1.432788*t+0.189269*t*t+0.001308*t*t*t))
	} else {
		q := p - 0.5
		r := q * q
		x = q * (2.50662823884 + r*(-18.61500062529+r*(41.39119773534+r*-25.44106049637))) /
			(1 + r*(-8.47351093090+r*(23.08336743743+r*(-21.06224101826+r*3.13082909833))))
	}
	// Newton refinement: f(x) = CDF(x) - p, f'(x) = pdf(x).
	for i := 0; i < 4; i++ {
		pdf := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		if pdf == 0 {
			break
		}
		step := (NormalCDF(x) - p) / pdf
		x -= step
		if math.Abs(step) < 1e-14 {
			break
		}
	}
	return x
}

// NormalPower returns the power of a two-sided level-alpha z-test when the
// test statistic is normal with unit variance and mean `shift` (the true
// effect divided by its standard error). Both rejection regions are counted;
// the wrong-direction one is negligible for any practically detectable
// effect but included for correctness. Shared by the audit-design power
// analysis and the privacy-sweep detectability model.
func NormalPower(shift, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("stats: NormalPower alpha domain (0,1)")
	}
	zCrit := NormalQuantile(1 - alpha/2)
	return NormalCDF(shift-zCrit) + NormalCDF(-shift-zCrit)
}

// lgamma returns log Γ(x) for x > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// computed with the Lentz continued-fraction expansion (Numerical Recipes
// §6.4). It underlies the Student-t CDF used for regression p-values.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	// Use the symmetry relation to keep the continued fraction convergent.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T ≤ t) for a Student-t variable with df degrees of
// freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TTestPValue returns the two-sided p-value for a t statistic with df
// degrees of freedom, the quantity regression tables star (§3.4).
func TTestPValue(t, df float64) float64 {
	if math.IsNaN(t) {
		return math.NaN()
	}
	p := 2 * StudentTCDF(-math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return p
}

// SignificanceStars renders a p-value the way the paper's tables do:
// *** p<0.001, ** p<0.01, * p<0.05, empty otherwise (§3.4).
func SignificanceStars(p float64) string {
	switch {
	case math.IsNaN(p):
		return ""
	case p < 0.001:
		return "***"
	case p < 0.01:
		return "**"
	case p < 0.05:
		return "*"
	}
	return ""
}

// BenjaminiHochberg converts a slice of p-values into adjusted q-values
// controlling the false discovery rate. An audit fits many coefficients
// across many models (Table 4 alone stars 21 terms); BH adjustment keeps
// the expected fraction of false "significant skew" claims below the chosen
// level. The output is aligned with the input; NaN inputs yield NaN outputs
// and do not affect the other adjustments.
func BenjaminiHochberg(pvalues []float64) []float64 {
	type idxP struct {
		idx int
		p   float64
	}
	var valid []idxP
	out := make([]float64, len(pvalues))
	for i, p := range pvalues {
		if math.IsNaN(p) {
			out[i] = math.NaN()
			continue
		}
		valid = append(valid, idxP{idx: i, p: p})
	}
	m := len(valid)
	if m == 0 {
		return out
	}
	sort.Slice(valid, func(a, b int) bool { return valid[a].p < valid[b].p })
	// q_(k) = min over j >= k of p_(j)·m/j, capped at 1 (step-up procedure).
	qs := make([]float64, m)
	running := 1.0
	for k := m - 1; k >= 0; k-- {
		q := valid[k].p * float64(m) / float64(k+1)
		if q < running {
			running = q
		}
		qs[k] = running
	}
	for k, v := range valid {
		out[v.idx] = qs[k]
	}
	return out
}
