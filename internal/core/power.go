package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// Power analysis for audit design: how many ad pairs and how many
// impressions per ad does an auditor need to detect a delivery skew of a
// given size? The paper sized its campaigns by experience ($2–3.50 per ad,
// 200 ads); this tool makes the trade-off explicit for anyone adapting the
// methodology.
//
// Model: each ad variant yields a delivery fraction measured from m
// countable impressions, so one variant's fraction has variance ≈
// p(1-p)/m. An audit runs k independent image pairs and compares the two
// group means, whose difference Δ has standard error
// sqrt(2·p(1-p)/(m·k)). Power is for the two-sided level-α z-test.

// PowerOptions describes one audit design.
type PowerOptions struct {
	// Delta is the true difference in the delivery fraction between the two
	// variants (e.g. 0.18 for the paper's Table 4a race effect).
	Delta float64
	// BaseRate is the underlying delivery fraction around which the
	// variance is computed (0.5 is the conservative maximum).
	BaseRate float64
	// ImpressionsPerAd is the countable impressions each ad accrues (the
	// paper's ads averaged ≈ 180).
	ImpressionsPerAd int
	// Pairs is the number of image pairs in the campaign (the paper used
	// 50 per race side).
	Pairs int
	// Alpha is the two-sided test level, in (0,1); 0 means 0.05.
	Alpha float64
}

// validate refuses a design outside the model and fills a zero Alpha.
func (o *PowerOptions) validate() error {
	o.Alpha = cmp.Or(o.Alpha, 0.05)
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("core: power delta %v outside (0,1)", o.Delta)
	}
	if o.BaseRate <= 0 || o.BaseRate >= 1 {
		return fmt.Errorf("core: base rate %v outside (0,1)", o.BaseRate)
	}
	if o.ImpressionsPerAd <= 0 || o.Pairs <= 0 {
		return fmt.Errorf("core: impressions (%d) and pairs (%d) must be positive", o.ImpressionsPerAd, o.Pairs)
	}
	if !(o.Alpha > 0 && o.Alpha < 1) {
		return fmt.Errorf("core: alpha %v outside (0,1)", o.Alpha)
	}
	return nil
}

// AuditPower returns the probability that the audit detects the skew at the
// given level.
func AuditPower(o PowerOptions) (float64, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	se := math.Sqrt(2 * o.BaseRate * (1 - o.BaseRate) / (float64(o.ImpressionsPerAd) * float64(o.Pairs)))
	return stats.NormalPower(o.Delta/se, o.Alpha), nil
}

// PrivacyPowerOptions extends the audit design with the reporting surface's
// privacy policy: the k-anonymity threshold and DP noise parameter of the
// insights API the auditor must read skew through.
type PrivacyPowerOptions struct {
	PowerOptions
	// K is the insights k-anonymity threshold (0 = no suppression).
	K int
	// Epsilon is the insights DP noise parameter (0 = no noise).
	Epsilon float64
}

// The insights surface the audit reads, as the power model sees it.
const (
	// breakdownCells is the number of breakdown cells the measurement sums
	// over (each released cell carries one independent noise draw): the 6
	// age buckets × 2 genders × 2 regions.
	breakdownCells = 24
	// minCellShare is the expected share of an ad's impressions in its
	// smallest group-defining cell; suppression erases the measurement
	// unless ImpressionsPerAd × minCellShare ≥ K.
	minCellShare float64 = 0.05
)

// PrivateAuditPower returns the detection probability of the audit when the
// insights surface privatizes. Two mechanisms attenuate power:
//
//   - suppression is a cliff: if the smallest group-defining cell falls
//     below K (ImpressionsPerAd × minCellShare < K), the cells the fraction
//     is computed from are withheld and the skew is unmeasurable — power 0;
//   - noise is a tax: each of the C released cells carries an independent
//     discrete-Laplace draw of variance σ², and by the delta method the
//     measured fraction gains variance σ²·C·p(1-p)/m² on top of the binomial
//     p(1-p)/m.
//
// The test is the same two-group mean comparison as AuditPower; with k
// pairs the difference's SE² is 2·v/pairs for per-ad variance v.
func PrivateAuditPower(o PrivacyPowerOptions) (float64, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	if err := (privacy.Config{K: o.K, Epsilon: o.Epsilon}).Validate(); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	m := float64(o.ImpressionsPerAd)
	if o.K > 0 && m*minCellShare < float64(o.K) {
		// Below the suppression cliff: the breakdown cells are withheld and
		// no amount of statistical care recovers the fraction.
		return 0, nil
	}
	p := o.BaseRate
	v := p * (1 - p) / m
	if o.Epsilon > 0 {
		sigma2 := privacy.NoiseVariance(o.Epsilon)
		v += sigma2 * float64(breakdownCells) * p * (1 - p) / (m * m)
	}
	se := math.Sqrt(2 * v / float64(o.Pairs))
	return stats.NormalPower(o.Delta/se, o.Alpha), nil
}

// MinimumImpressionsForPower returns the smallest per-ad impression count at
// which the privatized audit reaches the target power — the privacy layer's
// answer to "how big must each campaign be". Power is monotone in m: the
// suppression cliff is passed once, and both variance terms shrink with m.
func MinimumImpressionsForPower(o PrivacyPowerOptions, targetPower float64) (int, error) {
	if targetPower <= 0 || targetPower >= 1 {
		return 0, fmt.Errorf("core: target power %v outside (0,1)", targetPower)
	}
	const capM = 1 << 30
	lo := 1
	if o.K > 0 {
		lo = int(math.Ceil(float64(o.K) / minCellShare))
	}
	hi := lo
	for {
		o.ImpressionsPerAd = hi
		p, err := PrivateAuditPower(o)
		if err != nil {
			return 0, err
		}
		if p >= targetPower {
			break
		}
		hi *= 2
		if hi > capM {
			return 0, fmt.Errorf("core: target power %v unreachable below %d impressions per ad", targetPower, capM)
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		o.ImpressionsPerAd = mid
		p, err := PrivateAuditPower(o)
		if err != nil {
			return 0, err
		}
		if p >= targetPower {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// MinimumPairs returns the smallest number of image pairs achieving the
// target power for the design, or an error if no count up to 1e6 does.
func MinimumPairs(o PowerOptions, targetPower float64) (int, error) {
	if targetPower <= 0 || targetPower >= 1 {
		return 0, fmt.Errorf("core: target power %v outside (0,1)", targetPower)
	}
	lo, hi := 1, 1
	for {
		o.Pairs = hi
		p, err := AuditPower(o)
		if err != nil {
			return 0, err
		}
		if p >= targetPower {
			break
		}
		hi *= 2
		if hi > 1_000_000 {
			return 0, fmt.Errorf("core: target power %v unreachable below 1e6 pairs", targetPower)
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		o.Pairs = mid
		p, err := AuditPower(o)
		if err != nil {
			return 0, err
		}
		if p >= targetPower {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// SimulatedPower estimates the same detection probability by Monte Carlo on
// the lab's actual delivery engine: it runs trials small campaigns with one
// image pair each... — that would cost a full campaign per trial, so instead
// it resamples binomial draws under the analytic model, serving as an
// internal consistency check on AuditPower.
func SimulatedPower(o PowerOptions, trials int, seed int64) (float64, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	if trials < 100 {
		return 0, fmt.Errorf("core: %d trials too few", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	p1 := o.BaseRate + o.Delta/2
	p2 := o.BaseRate - o.Delta/2
	if p1 >= 1 || p2 <= 0 {
		return 0, fmt.Errorf("core: delta %v too large for base rate %v", o.Delta, o.BaseRate)
	}
	detected := 0
	m := o.ImpressionsPerAd
	for t := 0; t < trials; t++ {
		var s1, s2, n1, n2 int
		for k := 0; k < o.Pairs; k++ {
			for i := 0; i < m; i++ {
				if rng.Float64() < p1 {
					s1++
				}
				if rng.Float64() < p2 {
					s2++
				}
			}
			n1 += m
			n2 += m
		}
		z, err := stats.TwoProportionZTest(s1, n1, s2, n2)
		if err != nil {
			return 0, err
		}
		if !math.IsNaN(z.P) && z.P < o.Alpha {
			detected++
		}
	}
	return float64(detected) / float64(trials), nil
}
