package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/stats"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// StockExperimentOptions configures the §5.2/§5.3 stock-photo campaigns.
type StockExperimentOptions struct {
	PerPerson   int // photos per demographic combination; 0 means the paper's 5
	BudgetCents int // per-ad daily budget; 0 means 200 (paper: 200 all ages, 350 age-capped)
	AgeMax      int // 0 = no age limit (Campaign 1); 45 = Campaign 2
	Seed        int64
}

// StockResult is the outcome of a stock campaign: per-ad deliveries plus the
// Table 3 aggregates and the Table 4 regression fits.
type StockResult struct {
	Run        *CampaignRun
	Deliveries []Delivery
	Table3     []Table3Row
	Table4     *Table4
}

// RunStockExperiment runs Campaign 1 (AgeMax == 0) or Campaign 2
// (AgeMax == 45): the balanced stock catalog against the paired race-split
// audiences, all ads launched together.
func (l *Lab) RunStockExperiment(opt StockExperimentOptions) (*StockResult, error) {
	if opt.PerPerson == 0 {
		opt.PerPerson = 5
	}
	if opt.BudgetCents == 0 {
		opt.BudgetCents = 200
	}
	name := "Campaign 1 (stock, all ages)"
	if opt.AgeMax > 0 {
		name = fmt.Sprintf("Campaign 2 (stock, age<=%d)", opt.AgeMax)
	}
	cfg := CampaignConfig{
		Name:        name,
		BudgetCents: opt.BudgetCents,
		AgeMax:      opt.AgeMax,
		Seed:        opt.Seed + 12,
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	specs, err := StockSpecs(opt.PerPerson, opt.Seed+10)
	if err != nil {
		return nil, err
	}
	run, ds, err := l.runSplit(cfg, specs, fmt.Sprintf("stock-agemax%d", opt.AgeMax), opt.Seed+11)
	if err != nil {
		return nil, err
	}
	target := AgeTarget65Plus
	if opt.AgeMax > 0 {
		target = AgeTarget35Plus
	}
	t4, err := RegressTable4(ds, target)
	if err != nil {
		return nil, err
	}
	return &StockResult{Run: run, Deliveries: ds, Table3: Table3(ds), Table4: t4}, nil
}

// SyntheticExperimentOptions configures the §5.5 StyleGAN campaign: 5
// synthetic people × 20 variants at 200¢ an ad, audience aged ≤ 44.
type SyntheticExperimentOptions struct {
	DiscoverySamples int // faces sampled for direction fitting, at least 50 (paper: 50,000)
	Seed             int64
}

// SweepCell records how one tuned variant of a source person came out: the
// requested profile, what the classifier says about the produced image, and
// how far the image moved in nuisance space from the source (Figure 6's
// qualitative claim, quantified).
type SweepCell struct {
	Target           demo.Profile
	Classified       demo.Profile
	NuisanceDistance float64
}

// SyntheticResult is the outcome of Campaign 3 plus the Figure 6 sweep.
type SyntheticResult struct {
	Pipeline   *SyntheticPipeline
	Run        *CampaignRun
	Deliveries []Delivery
	Table4     *Table4
	Sweep      []SweepCell // variants of source 0
}

// RunSyntheticExperiment builds the synthetic pipeline, generates the
// variant grid, and runs Campaign 3.
func (l *Lab) RunSyntheticExperiment(opt SyntheticExperimentOptions) (*SyntheticResult, error) {
	sp, err := NewSyntheticPipeline(opt.DiscoverySamples, opt.Seed+20)
	if err != nil {
		return nil, err
	}
	specs, err := sp.SyntheticSpecs(5)
	if err != nil {
		return nil, err
	}
	run, ds, err := l.runSplit(CampaignConfig{
		Name:        "Campaign 3 (synthetic)",
		BudgetCents: 200,
		AgeMax:      44,
		Seed:        opt.Seed + 22,
	}, specs, "synthetic", opt.Seed+21)
	if err != nil {
		return nil, err
	}
	t4, err := RegressTable4(ds, AgeTarget35Plus)
	if err != nil {
		return nil, err
	}

	// Figure 6 sweep over source 0's variants.
	var sweep []SweepCell
	source, err := sp.Sources.Face(0)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs[:20] {
		sweep = append(sweep, SweepCell{
			Target:           spec.Profile,
			Classified:       sp.Classifier.Profile(spec.Image),
			NuisanceDistance: image.NuisanceDistance(source.Image, spec.Image),
		})
	}
	return &SyntheticResult{Pipeline: sp, Run: run, Deliveries: ds, Table4: t4, Sweep: sweep}, nil
}

// EmploymentExperimentOptions configures the §6 real-world campaign: 11
// jobs × 4 implied identities at 246¢ an ad (the paper's $216.71 over 88
// ads).
type EmploymentExperimentOptions struct {
	// DiscoverySamples is the faces sampled for direction fitting when
	// Pipeline is nil, at least 50; it is not read when Pipeline is set.
	DiscoverySamples int
	Seed             int64
	// Pipeline reuses an existing synthetic pipeline (e.g. from the
	// synthetic experiment) instead of training a fresh one.
	Pipeline *SyntheticPipeline
}

// Fig7RacePoint is one tick of Figure 7A: the same job advertised with a
// Black-presenting vs white-presenting face of the same gender.
type Fig7RacePoint struct {
	Job           string
	ImpliedGender demo.Gender
	BlackImage    float64 // fraction Black delivery with the Black face
	WhiteImage    float64 // fraction Black delivery with the white face
}

// Fig7GenderPoint is one tick of Figure 7B.
type Fig7GenderPoint struct {
	Job         string
	ImpliedRace demo.Race
	FemaleImage float64 // fraction female delivery with the female face
	MaleImage   float64 // fraction female delivery with the male face
}

// EmploymentResult is the outcome of Campaign 4.
type EmploymentResult struct {
	Run         *CampaignRun
	Deliveries  []Delivery
	Table5      *Table5
	RacePanel   []Fig7RacePoint
	GenderPanel []Fig7GenderPoint
}

// RunEmploymentExperiment runs the §6 campaign: 11 jobs × 4 implied
// identities, flagged as employment ads (special category), measured along
// both race and gender.
func (l *Lab) RunEmploymentExperiment(opt EmploymentExperimentOptions) (*EmploymentResult, error) {
	sp := opt.Pipeline
	if sp == nil {
		var err error
		if sp, err = NewSyntheticPipeline(opt.DiscoverySamples, opt.Seed+30); err != nil {
			return nil, err
		}
	}
	specs, err := sp.EmploymentSpecs(opt.Seed + 31)
	if err != nil {
		return nil, err
	}
	run, ds, err := l.runSplit(CampaignConfig{
		Name:        "Campaign 4 (real-world employment)",
		Special:     "EMPLOYMENT",
		BudgetCents: 246,
		AccountAge:  2007,
		Seed:        opt.Seed + 33,
		Headline:    "Now hiring — apply today",
		LinkURL:     "https://example-jobs.test/listings",
	}, specs, "employment", opt.Seed+32)
	if err != nil {
		return nil, err
	}
	t5, err := RegressTable5(ds)
	if err != nil {
		return nil, err
	}
	res := &EmploymentResult{Run: run, Deliveries: ds, Table5: t5}

	// Figure 7 pairings.
	byKey := map[string]*Delivery{}
	for i := range ds {
		byKey[ds[i].Key] = &ds[i]
	}
	for _, job := range jobsOf(ds) {
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			b := byKey[fmt.Sprintf("job-%s-black-%s", job, g)]
			w := byKey[fmt.Sprintf("job-%s-white-%s", job, g)]
			if b != nil && w != nil {
				res.RacePanel = append(res.RacePanel, Fig7RacePoint{
					Job: job, ImpliedGender: g,
					BlackImage: b.FracBlack, WhiteImage: w.FracBlack,
				})
			}
		}
		for _, r := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
			f := byKey[fmt.Sprintf("job-%s-%s-female", job, r)]
			m := byKey[fmt.Sprintf("job-%s-%s-male", job, r)]
			if f != nil && m != nil {
				res.GenderPanel = append(res.GenderPanel, Fig7GenderPoint{
					Job: job, ImpliedRace: r,
					FemaleImage: f.FracFemale, MaleImage: m.FracFemale,
				})
			}
		}
	}
	return res, nil
}

func jobsOf(ds []Delivery) []string {
	seen := map[string]bool{}
	var out []string
	for i := range ds {
		if j := ds[i].Job; j != "" && !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// Figure1Result is the E8 headline contrast: the same lumber job ad with a
// white vs a Black adult man pictured, with a two-proportion z-test on the
// gap (the per-pair significance question Figure 1 raises implicitly).
type Figure1Result struct {
	WhiteImageFracWhite float64
	BlackImageFracWhite float64
	WhiteImageCountable int
	BlackImageCountable int
	Test                stats.TwoProportionZ
}

// RunFigure1 runs the two-ad contrast from the paper's Figure 1.
func (l *Lab) RunFigure1(pipeline *SyntheticPipeline, seed int64) (*Figure1Result, error) {
	specs, err := pipeline.EmploymentSpecs(seed + 40)
	if err != nil {
		return nil, err
	}
	var pair []AdSpec
	for _, s := range specs {
		if s.Key == "job-lumber-white-male" || s.Key == "job-lumber-black-male" {
			pair = append(pair, s)
		}
	}
	if len(pair) != 2 {
		return nil, fmt.Errorf("core: figure 1 pair not found in employment specs")
	}
	_, ds, err := l.runSplit(CampaignConfig{
		Name:        "Figure 1 job-ad pair",
		Special:     "EMPLOYMENT",
		BudgetCents: 246,
		Seed:        seed + 42,
	}, pair, "figure1", seed+41)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{}
	var whiteSuccess, blackSuccess int
	for i := range ds {
		countable := int(float64(ds[i].Impressions)*(1-ds[i].OutOfState) + 0.5)
		whites := int(float64(countable)*(1-ds[i].FracBlack) + 0.5)
		switch ds[i].Profile.Race {
		case demo.RaceWhite:
			res.WhiteImageFracWhite = 1 - ds[i].FracBlack
			res.WhiteImageCountable = countable
			whiteSuccess = whites
		case demo.RaceBlack:
			res.BlackImageFracWhite = 1 - ds[i].FracBlack
			res.BlackImageCountable = countable
			blackSuccess = whites
		}
	}
	if res.WhiteImageCountable > 0 && res.BlackImageCountable > 0 {
		test, err := stats.TwoProportionZTest(whiteSuccess, res.WhiteImageCountable, blackSuccess, res.BlackImageCountable)
		if err != nil {
			return nil, err
		}
		res.Test = test
	}
	return res, nil
}

// PovertyExperimentOptions configures the Appendix A replication: the
// stock catalog (5 photos per combination, 200¢ an ad) under hostile review.
type PovertyExperimentOptions struct {
	Seed int64
}

// povertyReviewRejectProb is the elevated rejection rate that reproduces the
// mass rejections the authors hit (44 of 100 ads stayed rejected after
// appeal).
const povertyReviewRejectProb = 0.44

// PovertyResult is the Appendix A outcome.
type PovertyResult struct {
	// Poverty gap before matching (medians, §A: 12% vs 16%), and the Welch
	// test before and after.
	PreMedianWhite, PreMedianBlack float64
	PreTest, PostTest              stats.WelchT
	AudienceBefore, AudienceAfter  int

	RejectedSpecs  int
	SurvivingSpecs int
	Deliveries     []Delivery
	TableA1        *stats.OLSResult
}

// RunPovertyExperiment reproduces Appendix A: subsample the audiences so
// ZIP-level poverty is identically distributed across race×gender cells,
// re-run the stock ads under a hostile review environment, drop rejected
// ads, and fit the Table A1 regression on the survivors.
func (l *Lab) RunPovertyExperiment(opt PovertyExperimentOptions) (*PovertyResult, error) {
	res := &PovertyResult{}

	flSample, ncSample := l.BalancedSamples(l.Config.Scale.PerCell(), opt.Seed+50)
	res.AudienceBefore = len(flSample) + len(ncSample)
	res.PreMedianWhite, res.PreMedianBlack = voter.PovertyStats(flSample, l.FL.Poverty)
	res.PreTest = povertyWelch(l, flSample, ncSample)

	rng := rand.New(rand.NewSource(opt.Seed + 51))
	flMatched := voter.MatchPoverty(flSample, l.FL.Poverty, rng)
	ncMatched := voter.MatchPoverty(ncSample, l.NC.Poverty, rng)
	res.AudienceAfter = len(flMatched) + len(ncMatched)
	res.PostTest = povertyWelch(l, flMatched, ncMatched)

	auds, err := l.BuildSplitAudiences("poverty-matched", flMatched, ncMatched)
	if err != nil {
		return nil, err
	}
	specs, err := StockSpecs(5, opt.Seed+52)
	if err != nil {
		return nil, err
	}

	// Hostile review environment. povertyReviewRejectProb is the target
	// fraction of *specs* that stay rejected (a spec is dropped when either
	// copy is rejected, as the paper dropped ads "rejected from either
	// campaign"), so the per-copy probability is 1-√(1-p).
	perCopy := 1 - math.Sqrt(1-povertyReviewRejectProb)
	if err := l.Platform.SetReviewRejectProb(perCopy); err != nil {
		return nil, err
	}
	defer func() {
		// Review strictness is experiment-local state on the shared lab.
		_ = l.Platform.SetReviewRejectProb(0)
	}()
	run, ds, err := l.runMeasured(CampaignConfig{
		Name:        "Appendix A (poverty-controlled)",
		BudgetCents: 200,
		Seed:        opt.Seed + 53,
	}, specs, auds)
	if err != nil {
		return nil, err
	}
	for i := range run.Ads {
		if run.Ads[i].Rejected() {
			res.RejectedSpecs++
		}
	}
	res.SurvivingSpecs = len(run.Ads) - res.RejectedSpecs
	res.Deliveries = ds
	if res.TableA1, err = TableA1(ds); err != nil {
		return nil, err
	}
	return res, nil
}

// povertyWelch compares the ZIP poverty of the white and the Black voters
// of both states' samples.
func povertyWelch(l *Lab, flSample, ncSample []voter.Entry) stats.WelchT {
	var white, black []float64
	add := func(ix *voter.Index, sample []voter.Entry) {
		for i := range sample {
			e := &sample[i]
			switch e.Race {
			case demo.RaceWhite:
				white = append(white, ix.Poverty(e))
			case demo.RaceBlack:
				black = append(black, ix.Poverty(e))
			}
		}
	}
	add(l.FL, flSample)
	add(l.NC, ncSample)
	return stats.WelchTTest(white, black)
}

// ValidationResult is E11: how well the Figure 2 inference recovers the true
// racial makeup of the actual audience, measured against the simulator's
// race oracle.
type ValidationResult struct {
	Ads            int
	MeanAbsError   float64 // |inferred - true| averaged over ads
	MaxAbsError    float64
	MeanOutOfState float64
}

// ValidateRaceInference runs a small stock campaign and compares the
// API-inferred %Black per ad with the oracle truth.
func (l *Lab) ValidateRaceInference(perPerson int, seed int64) (*ValidationResult, error) {
	specs, err := StockSpecs(perPerson, seed+60)
	if err != nil {
		return nil, err
	}
	run, ds, err := l.runSplit(CampaignConfig{
		Name:        "E11 methodology validation",
		BudgetCents: 200,
		Seed:        seed + 62,
	}, specs, "validation", seed+61)
	if err != nil {
		return nil, err
	}
	byKey := map[string]*AdRun{}
	for i := range run.Ads {
		byKey[run.Ads[i].Spec.Key] = &run.Ads[i]
	}
	res := &ValidationResult{}
	for i := range ds {
		d := &ds[i]
		ar := byKey[d.Key]
		var black, countable int
		for _, id := range []string{ar.PrimaryID, ar.ReversedID} {
			st, err := l.Platform.Insights(id)
			if err != nil {
				return nil, err
			}
			black += st.RaceOracle[demo.RaceBlack]
			countable += st.RaceOracle[demo.RaceBlack] + st.RaceOracle[demo.RaceWhite]
		}
		if countable == 0 {
			continue
		}
		truth := float64(black) / float64(countable)
		e := math.Abs(d.FracBlack - truth)
		res.Ads++
		res.MeanAbsError += e
		if e > res.MaxAbsError {
			res.MaxAbsError = e
		}
		res.MeanOutOfState += d.OutOfState
	}
	if res.Ads == 0 {
		return nil, fmt.Errorf("core: validation produced no measurable ads")
	}
	res.MeanAbsError /= float64(res.Ads)
	res.MeanOutOfState /= float64(res.Ads)
	return res, nil
}

// Table2Row summarizes one campaign the way the paper's Table 2 does.
type Table2Row struct {
	Campaign     string
	Ads          int
	AgeLimit     bool
	Images       string
	Reach        int
	Impressions  int
	SpendDollars float64
	Section      string
}

// SummarizeCampaign builds a Table 2 row from a campaign run.
func SummarizeCampaign(run *CampaignRun, images, section string) Table2Row {
	return Table2Row{
		Campaign:     run.Config.Name,
		Ads:          run.AdCount(),
		AgeLimit:     run.Config.AgeMax > 0,
		Images:       images,
		Reach:        run.TotalReach(),
		Impressions:  run.TotalImpressions(),
		SpendDollars: run.TotalSpendCents() / 100,
		Section:      section,
	}
}
