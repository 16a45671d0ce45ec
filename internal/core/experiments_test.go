package core

import (
	"math"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// Test-scale pipeline options: the technique is invariant to sample counts.
const testDiscoverySamples = 1500

var (
	pipeOnce sync.Once
	pipe     *SyntheticPipeline
	pipeErr  error
)

func sharedPipeline(t *testing.T) *SyntheticPipeline {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = NewSyntheticPipeline(testDiscoverySamples, 500)
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestSyntheticPipelineSpecs(t *testing.T) {
	sp := sharedPipeline(t)
	specs, err := sp.SyntheticSpecs(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 40 {
		t.Fatalf("specs = %d, want 40 (2 sources × 20 variants)", len(specs))
	}
	// The classifier must agree with the requested profile on gender and
	// race for the large majority of variants (§4.2: images are tuned until
	// the classifier reads the hint).
	agree := 0
	for _, s := range specs {
		got := sp.Classifier.Profile(s.Image)
		if got.Gender == s.Profile.Gender && got.Race == s.Profile.Race {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(specs)); frac < 0.85 {
		t.Errorf("classifier agrees with target on %.0f%% of variants", 100*frac)
	}
	if _, err := sp.SyntheticSpecs(0); err == nil {
		t.Error("zero sources: want error")
	}
	if _, err := sp.SyntheticSpecs(1 << 30); err == nil {
		t.Error("too many sources: want error")
	}
}

func TestEmploymentSpecsShape(t *testing.T) {
	sp := sharedPipeline(t)
	specs, err := sp.EmploymentSpecs(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 44 {
		t.Fatalf("specs = %d, want 44 (11 jobs × 4 identities)", len(specs))
	}
	jobs := map[string]int{}
	for _, s := range specs {
		if s.Image.Job == "" {
			t.Fatalf("spec %s missing job", s.Key)
		}
		jobs[s.Image.Job]++
		if s.Profile.Age != demo.ImpliedAdult {
			t.Errorf("spec %s: employment faces are adult, got %v", s.Key, s.Profile.Age)
		}
	}
	for j, n := range jobs {
		if n != 4 {
			t.Errorf("job %s has %d identity configurations, want 4", j, n)
		}
	}
}

func TestSyntheticExperimentMatchesStockShape(t *testing.T) {
	// §5.5's headline: the race effect persists with synthetic faces,
	// demonstrating that delivery reacts to demographics, not photo
	// composition.
	l := sharedLab(t)
	res, err := l.RunSyntheticExperiment(SyntheticExperimentOptions{
		DiscoverySamples: testDiscoverySamples,
		Seed:             600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 100 {
		t.Errorf("deliveries %d, want 100 (5 sources × 20 variants)", len(res.Deliveries))
	}
	if c, _ := res.Table4.Black.Coefficient("Black"); c < 0.05 {
		t.Errorf("synthetic Black coefficient %v, want clearly positive (paper: +0.23)", c)
	}
	if !res.Table4.Black.Significant("Black", 0.001) {
		t.Error("synthetic Black coefficient should be significant")
	}
	// Sweep (Figure 6): 20 variants, classified mostly as requested.
	if len(res.Sweep) != 20 {
		t.Fatalf("sweep cells = %d", len(res.Sweep))
	}
	agree := 0
	for _, c := range res.Sweep {
		if c.Classified.Gender == c.Target.Gender && c.Classified.Race == c.Target.Race {
			agree++
		}
	}
	if agree < 16 {
		t.Errorf("sweep classification agreement %d/20", agree)
	}
}

func TestEmploymentExperimentTable5AndFigure7(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunEmploymentExperiment(EmploymentExperimentOptions{
		Pipeline: sharedPipeline(t),
		Seed:     700,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.AdCount() != 88 {
		t.Errorf("ad count %d, want 88 (Campaign 4)", res.Run.AdCount())
	}
	// Table 5 model III: significant positive congruent race skew.
	c, _ := res.Table5.RaceOverall.Coefficient("Implied: Black")
	p, _ := res.Table5.RaceOverall.PValueOf("Implied: Black")
	if c <= 0 || p >= 0.05 {
		t.Errorf("race model III: coef %v p %v, want positive significant (paper: +0.105***)", c, p)
	}
	// Models IV-VI: no meaningful gender skew (paper's finding). Our
	// standard errors are far smaller than the paper's, so tiny
	// coefficients can reach nominal significance; the substantive check
	// is that any gender effect is small in magnitude and dwarfed by the
	// race effect.
	cg, _ := res.Table5.GenderOverall.Coefficient("Implied: female")
	if cg > 0.06 || cg < -0.06 {
		t.Errorf("gender model VI coefficient %v; the paper finds no systematic gender skew", cg)
	}
	if cg > c/2 || cg < -c/2 {
		t.Errorf("gender effect %v not dwarfed by race effect %v", cg, c)
	}
	// Figure 7A: a majority of job pairs skew congruently.
	if len(res.RacePanel) != 22 {
		t.Errorf("race panel points = %d, want 22 (11 jobs × 2 genders)", len(res.RacePanel))
	}
	if share := CongruentRaceShare(res.RacePanel); share < 0.6 {
		t.Errorf("congruent race share %.2f, want a clear majority (paper: 'vast majority')", share)
	}
	// Job base rates dominate: lumber delivers less female than nurse
	// regardless of the face.
	lumberF, _ := GroupMean(res.Deliveries,
		func(d *Delivery) bool { return d.Job == "lumber" },
		func(d *Delivery) float64 { return d.FracFemale })
	nurseF, _ := GroupMean(res.Deliveries,
		func(d *Delivery) bool { return d.Job == "nurse" },
		func(d *Delivery) float64 { return d.FracFemale })
	if lumberF >= nurseF {
		t.Errorf("lumber %%female %.3f not below nurse %.3f", lumberF, nurseF)
	}
}

func TestFigure1Contrast(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunFigure1(sharedPipeline(t), 800)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: white-man lumber ad → 56% white; Black-man ad → 29% white.
	if res.WhiteImageFracWhite <= res.BlackImageFracWhite {
		t.Errorf("white-image ad %.3f white delivery not above Black-image ad %.3f",
			res.WhiteImageFracWhite, res.BlackImageFracWhite)
	}
}

func TestPovertyExperiment(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunPovertyExperiment(PovertyExperimentOptions{Seed: 900})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-matching: Black-targeted voters live in poorer ZIPs, significantly.
	if res.PreMedianBlack <= res.PreMedianWhite {
		t.Errorf("pre-matching medians: black %.3f <= white %.3f", res.PreMedianBlack, res.PreMedianWhite)
	}
	if res.PreTest.P > 0.01 {
		t.Errorf("pre-matching poverty gap p = %v, should be clearly significant", res.PreTest.P)
	}
	// Post-matching: gap gone; audience shrank (paper: 1.73M from 2.87M).
	if res.PostTest.P < 0.05 && math.Abs(res.PostTest.DeltaM) > 0.005 {
		t.Errorf("post-matching gap persists: Δ=%v p=%v", res.PostTest.DeltaM, res.PostTest.P)
	}
	if res.AudienceAfter >= res.AudienceBefore {
		t.Errorf("audience %d -> %d should shrink", res.AudienceBefore, res.AudienceAfter)
	}
	// Hostile review rejected a large minority of ads (paper: 44/100).
	if res.RejectedSpecs < 20 || res.RejectedSpecs > 80 {
		t.Errorf("rejected %d of 100 specs, want roughly 44", res.RejectedSpecs)
	}
	if res.SurvivingSpecs+res.RejectedSpecs != 100 {
		t.Errorf("specs don't add up: %d + %d", res.SurvivingSpecs, res.RejectedSpecs)
	}
	// Table A1: race effect survives the poverty control.
	if c, _ := res.TableA1.Coefficient("Black"); c < 0.02 {
		t.Errorf("poverty-controlled Black coefficient %v, want positive (paper: +0.085)", c)
	}
	if !res.TableA1.Significant("Black", 0.05) {
		t.Error("poverty-controlled Black coefficient should remain significant")
	}
}

func TestAblationNoEARKillsRaceEffect(t *testing.T) {
	// A1: with the eAR term disabled the auction is content-blind and the
	// Table 4 race coefficient collapses toward zero.
	l, err := NewLab(LabConfig{Seed: 11, Scale: ScaleTest, DisableEAR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.RunStockExperiment(StockExperimentOptions{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// With constant eAR the delivery mix is exchangeable across ads: the
	// implied-race term must lose its significance and the model its
	// explanatory power (versus p < 0.001 and R² ≈ 0.8 with eAR on).
	if p, _ := res.Table4.Black.PValueOf("Black"); p < 0.01 {
		t.Errorf("content-blind Black term p = %v, want non-significant", p)
	}
	if res.Table4.Black.R2 > 0.3 {
		t.Errorf("content-blind %%Black R² = %v, want near zero", res.Table4.Black.R2)
	}
}

func TestAblationReversedCopiesCancelConfounder(t *testing.T) {
	// A4: boost Florida activity 50%. The aggregated two-copy estimate
	// stays near truth; a single-copy estimate is badly biased.
	l, err := NewLab(LabConfig{Seed: 13, Scale: ScaleTest, FLActivityBoost: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.ValidateRaceInference(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAbsError > 0.06 {
		t.Errorf("aggregated estimate error %.4f under FL confounder, want small", res.MeanAbsError)
	}
}
