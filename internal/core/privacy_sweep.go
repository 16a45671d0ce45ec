package core

import (
	"context"
	"fmt"
	"math"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// Skew-detectability sweep: how much of the paper's measurable delivery skew
// survives when the insights surface privatizes? Real platforms gate
// reporting behind minimum-audience thresholds and noise — the regime prior
// audit work had to work around — so the sweep re-reads ONE delivered
// campaign at every (k, epsilon) level and re-runs the race and gender
// group contrasts on the privatized reports. Privatization is
// response-time, so delivery runs once and the grid costs only insights
// reads; the measured attenuation is then compared with the analytic power
// model in PrivateAuditPower.

// PrivacySweepSchema tags the privacy_sweep.json that `adaudit -csv <dir> run
// privacy` writes, so the layout can grow while old files still parse.
const PrivacySweepSchema = "adaudit/bench-privacy/v1"

// PrivacySweepOptions configures the grid.
type PrivacySweepOptions struct {
	// Ks is the k-anonymity grid; default {0, 20, 100}.
	Ks []int
	// Epsilons is the DP noise grid; 0 means no noise (epsilon = ∞).
	// Default {0, 1, 0.1}.
	Epsilons []float64
	// Seed fixes the sweep's noise streams.
	Seed int64
	// Alpha is the detection threshold for the Welch tests; default 0.05.
	Alpha float64
	// TargetPower sizes the minimum-campaign answer; default 0.8.
	TargetPower float64
}

func (o *PrivacySweepOptions) setDefaults() {
	if len(o.Ks) == 0 {
		o.Ks = []int{0, 20, 100}
	}
	if len(o.Epsilons) == 0 {
		o.Epsilons = []float64{0, 1, 0.1}
	}
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.TargetPower == 0 {
		o.TargetPower = 0.8
	}
}

// PrivacySweepCell is the sweep outcome at one privacy level.
type PrivacySweepCell struct {
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"` // 0 = no noise
	Level   string  `json:"level"`

	// MeasurableAds kept a readable breakdown; SuppressedAds lost theirs
	// entirely (minimum-audience gate or total cell suppression);
	// SuppressedCellsTotal sums withheld cells across all reads.
	MeasurableAds        int `json:"measurable_ads"`
	SuppressedAds        int `json:"suppressed_ads"`
	SuppressedCellsTotal int `json:"suppressed_cells_total"`

	// Race contrast: mean FracBlack of Black-image ads minus white-image
	// ads, Welch t-tested across ads. Measured=false means too few
	// measurable ads to test (statistics are zeroed, not NaN).
	RaceMeasured bool    `json:"race_measured"`
	RaceGap      float64 `json:"race_gap"`
	RaceT        float64 `json:"race_t"`
	RaceP        float64 `json:"race_p"`
	RaceDetected bool    `json:"race_detected"`

	// Gender contrast: mean FracFemale of female-image vs male-image ads.
	GenderMeasured bool    `json:"gender_measured"`
	GenderGap      float64 `json:"gender_gap"`
	GenderT        float64 `json:"gender_t"`
	GenderP        float64 `json:"gender_p"`
	GenderDetected bool    `json:"gender_detected"`

	// AnalyticPower is PrivateAuditPower at this level for the baseline
	// effect size and the campaign's actual per-ad impressions;
	// MinImpressionsPerAd is the smallest per-ad impression count that
	// reaches the target power (0 when unreachable below the search cap).
	AnalyticPower       float64 `json:"analytic_power"`
	MinImpressionsPerAd int     `json:"min_impressions_per_ad"`
}

// PrivacySweepResult is the full grid plus the unprivatized baseline the
// power model anchors on.
type PrivacySweepResult struct {
	Schema      string  `json:"schema"`
	Name        string  `json:"name"`
	Scale       string  `json:"scale"`
	Seed        int64   `json:"seed"`
	Alpha       float64 `json:"alpha"`
	TargetPower float64 `json:"target_power"`

	// Baseline (privacy off) anchors: the measured effect sizes and the
	// campaign geometry the analytic model scales from.
	BaselineRaceGap   float64 `json:"baseline_race_gap"`
	BaselineGenderGap float64 `json:"baseline_gender_gap"`
	BaselineBaseRate  float64 `json:"baseline_base_rate"`
	ImpressionsPerAd  int     `json:"impressions_per_ad"`
	PairsPerGroup     int     `json:"pairs_per_group"`

	Cells []PrivacySweepCell `json:"cells"`
}

// zeroNaN keeps the result JSON-encodable: encoding/json rejects NaN.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// levelMeasurement is one privacy level's re-read of the campaign.
type levelMeasurement struct {
	deliveries      []Delivery
	suppressedAds   int
	suppressedCells int
}

// measureUnderPrivacy switches the lab's live server to cfg and re-reads
// every delivered ad's insights. Ads whose privatized report has no usable
// breakdown (the minimum-audience gate, or every cell suppressed) count as
// suppressed rather than failing the sweep.
func measureUnderPrivacy(l *Lab, run *CampaignRun, cfg privacy.Config) (*levelMeasurement, error) {
	l.SetPrivacy(cfg)
	ctx := context.Background()
	m := &levelMeasurement{}
	for i := range run.Ads {
		src := &run.Ads[i]
		if src.Rejected() {
			continue
		}
		ar := AdRun{
			Spec:           src.Spec,
			PrimaryID:      src.PrimaryID,
			ReversedID:     src.ReversedID,
			PrimaryStatus:  src.PrimaryStatus,
			ReversedStatus: src.ReversedStatus,
		}
		for _, side := range []struct {
			id   string
			dest **marketing.InsightsResponse
		}{
			{src.PrimaryID, &ar.Primary},
			{src.ReversedID, &ar.Reversed},
		} {
			if side.id == "" {
				continue
			}
			resp, err := l.Client.Insights(ctx, side.id)
			if err != nil {
				return nil, fmt.Errorf("core: privacy sweep insights for %s: %w", side.id, err)
			}
			if resp.Privacy != nil {
				m.suppressedCells += resp.Privacy.SuppressedCells
			}
			*side.dest = resp
		}
		d, err := MeasureAdRun(&ar)
		if err != nil {
			// Zero readable impressions: the whole breakdown was withheld.
			m.suppressedAds++
			continue
		}
		m.deliveries = append(m.deliveries, d)
	}
	return m, nil
}

// groupContrast Welch-tests a per-ad metric between two implied-identity
// groups and reports the gap (mean A − mean B).
func groupContrast(ds []Delivery, inA func(*Delivery) bool, metric func(*Delivery) float64) (gap, t, p float64, measured bool) {
	var a, b []float64
	for i := range ds {
		d := &ds[i]
		if inA(d) {
			a = append(a, metric(d))
		} else {
			b = append(b, metric(d))
		}
	}
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, 0, false
	}
	w := stats.WelchTTest(a, b)
	if math.IsNaN(w.P) {
		return zeroNaN(w.DeltaM), 0, 0, false
	}
	return w.DeltaM, w.T, w.P, true
}

// RunPrivacySweep re-reads one delivered campaign at every grid level and
// assembles the detectability record. The lab's privacy policy is restored
// to off before returning.
func RunPrivacySweep(l *Lab, run *CampaignRun, opt PrivacySweepOptions) (*PrivacySweepResult, error) {
	opt.setDefaults()
	defer l.SetPrivacy(privacy.Config{})

	// Baseline: privacy off, the paper's own measurement.
	base, err := measureUnderPrivacy(l, run, privacy.Config{})
	if err != nil {
		return nil, err
	}
	if len(base.deliveries) == 0 {
		return nil, fmt.Errorf("core: privacy sweep: no measurable ads at baseline")
	}
	isBlackImage := func(d *Delivery) bool { return d.Profile.Race == demo.RaceBlack }
	isFemaleImage := func(d *Delivery) bool { return d.Profile.Gender == demo.GenderFemale }
	fracBlack := func(d *Delivery) float64 { return d.FracBlack }
	fracFemale := func(d *Delivery) float64 { return d.FracFemale }

	res := &PrivacySweepResult{
		Schema:      PrivacySweepSchema,
		Name:        "privacy-detectability",
		Scale:       l.Config.Scale.String(),
		Seed:        opt.Seed,
		Alpha:       opt.Alpha,
		TargetPower: opt.TargetPower,
	}
	raceGap, _, _, _ := groupContrast(base.deliveries, isBlackImage, fracBlack)
	genderGap, _, _, _ := groupContrast(base.deliveries, isFemaleImage, fracFemale)
	res.BaselineRaceGap = zeroNaN(math.Abs(raceGap))
	res.BaselineGenderGap = zeroNaN(math.Abs(genderGap))

	var impsTotal, countA int
	var rateSum float64
	for i := range base.deliveries {
		d := &base.deliveries[i]
		impsTotal += d.Impressions
		rateSum += d.FracBlack
		if isBlackImage(d) {
			countA++
		}
	}
	res.ImpressionsPerAd = impsTotal / len(base.deliveries)
	res.PairsPerGroup = countA
	if n := len(base.deliveries) - countA; n < res.PairsPerGroup {
		res.PairsPerGroup = n
	}
	res.BaselineBaseRate = rateSum / float64(len(base.deliveries))

	for _, k := range opt.Ks {
		for _, eps := range opt.Epsilons {
			cfg, err := privacy.FromFlags(k, eps, opt.Seed)
			if err != nil {
				return nil, err
			}
			m := base
			if cfg.Enabled() {
				if m, err = measureUnderPrivacy(l, run, cfg); err != nil {
					return nil, err
				}
			}
			cell := PrivacySweepCell{
				K:                    k,
				Epsilon:              eps,
				Level:                cfg.Level.String(),
				MeasurableAds:        len(m.deliveries),
				SuppressedAds:        m.suppressedAds,
				SuppressedCellsTotal: m.suppressedCells,
			}
			gap, t, p, ok := groupContrast(m.deliveries, isBlackImage, fracBlack)
			cell.RaceMeasured = ok
			cell.RaceGap, cell.RaceT, cell.RaceP = zeroNaN(gap), zeroNaN(t), zeroNaN(p)
			cell.RaceDetected = ok && p < opt.Alpha
			gap, t, p, ok = groupContrast(m.deliveries, isFemaleImage, fracFemale)
			cell.GenderMeasured = ok
			cell.GenderGap, cell.GenderT, cell.GenderP = zeroNaN(gap), zeroNaN(t), zeroNaN(p)
			cell.GenderDetected = ok && p < opt.Alpha

			cell.AnalyticPower, cell.MinImpressionsPerAd = analyticCell(res, k, eps, opt)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// analyticCell evaluates the closed-form power model at one grid level,
// anchored on the baseline effect size and campaign geometry. Unmeasurable
// or degenerate anchors yield (0, 0) rather than an error: the sweep is a
// record, and a zero row is itself the finding.
func analyticCell(res *PrivacySweepResult, k int, eps float64, opt PrivacySweepOptions) (power float64, minImps int) {
	delta := res.BaselineRaceGap
	if delta <= 0 || delta >= 1 || res.PairsPerGroup < 1 || res.ImpressionsPerAd < 1 {
		return 0, 0
	}
	baseRate := res.BaselineBaseRate
	if baseRate < 0.02 {
		baseRate = 0.02
	}
	if baseRate > 0.98 {
		baseRate = 0.98
	}
	po := PrivacyPowerOptions{
		PowerOptions: PowerOptions{
			Delta:            delta,
			BaseRate:         baseRate,
			ImpressionsPerAd: res.ImpressionsPerAd,
			Pairs:            res.PairsPerGroup,
			Alpha:            opt.Alpha,
		},
		K:       k,
		Epsilon: eps,
	}
	p, err := PrivateAuditPower(po)
	if err != nil {
		return 0, 0
	}
	m, err := MinimumImpressionsForPower(po, opt.TargetPower)
	if err != nil {
		m = 0
	}
	return zeroNaN(p), m
}
