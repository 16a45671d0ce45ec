package core

import (
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// noAffinityBehavior returns a behaviour config with every demographic
// affinity switched off.
func noAffinityBehavior() population.BehaviorConfig {
	cfg := population.DefaultBehaviorConfig()
	cfg.AffinityScale = 0
	return cfg
}

var (
	labOnce sync.Once
	testLab *Lab
)

// sharedLab builds one ScaleTest lab for all integration tests.
func sharedLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		l, err := NewLab(LabConfig{Seed: 1, Scale: ScaleTest})
		if err != nil {
			panic(err)
		}
		testLab = l
	})
	return testLab
}

func TestLabServesMarketingAPI(t *testing.T) {
	l := sharedLab(t)
	resp, err := http.Get(l.URL() + "/v1/insights?ad_id=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestLabClose(t *testing.T) {
	l, err := NewLab(LabConfig{Seed: 99, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(l.URL() + "/v1/insights?ad_id=x"); err == nil {
		t.Error("server should be down after Close")
	}
}

func TestScaleStrings(t *testing.T) {
	if ScaleTest.String() != "test" || ScaleBench.String() != "bench" || ScaleFull.String() != "full" {
		t.Error("scale names")
	}
	if ScaleFull.PerCell() <= ScaleTest.PerCell() {
		t.Error("full scale should use larger cells")
	}
}

// TestNewLabRefusesUnknownScale: a scale outside the presets is refused, in
// a lab and in an evaluation, not sized like ScaleTest.
func TestNewLabRefusesUnknownScale(t *testing.T) {
	for _, s := range []Scale{-1, ScaleFull + 1, 7} {
		if lab, err := NewLab(LabConfig{Seed: 1, Scale: s}); err == nil || !strings.Contains(err.Error(), "unknown Scale") {
			lab.Close()
			t.Errorf("NewLab with %s: got %v, want an unknown-Scale error", s, err)
		}
		e := &Evaluation{Seed: 1, Scale: s}
		if _, err := e.Table1(); err == nil || !strings.Contains(err.Error(), "unknown Scale") {
			t.Errorf("Evaluation with %s: got %v, want an unknown-Scale error", s, err)
		}
	}
}

func TestBalancedSamplesAndTable1(t *testing.T) {
	l := sharedLab(t)
	fl, nc := l.BalancedSamples(50, 7)
	if err := voter.VerifyBalance(fl); err != nil {
		t.Fatal(err)
	}
	if err := voter.VerifyBalance(nc); err != nil {
		t.Fatal(err)
	}
	rows := Table1(fl, nc)
	if len(rows) != 6 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total != 4*r.GroupSize {
			t.Errorf("%s: total %d != 4×%d", r.Age, r.Total, r.GroupSize)
		}
	}
}

func TestBuildSplitAudiences(t *testing.T) {
	l := sharedLab(t)
	fl, nc := l.BalancedSamples(40, 8)
	auds, err := l.BuildSplitAudiences("test-split", fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	if auds.PrimaryID == "" || auds.ReversedID == "" || auds.PrimaryID == auds.ReversedID {
		t.Errorf("audiences: %+v", auds)
	}
	if _, err := l.BuildSplitAudiences("bad", nil, nc); err == nil {
		t.Error("empty FL sample: want error")
	}
}

func TestRunPairedCampaignValidation(t *testing.T) {
	l := sharedLab(t)
	fl, nc := l.BalancedSamples(40, 9)
	auds, err := l.BuildSplitAudiences("val-split", fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunPairedCampaign(CampaignConfig{Name: "empty", BudgetCents: 200}, nil, auds); err == nil {
		t.Error("no specs: want error")
	}
}

// stockResultOnce shares the expensive stock experiment across the
// shape-assertion tests below.
var (
	stockOnce sync.Once
	stockRes  *StockResult
	stockErr  error
)

func stockResult(t *testing.T) *StockResult {
	t.Helper()
	l := sharedLab(t)
	stockOnce.Do(func() {
		stockRes, stockErr = l.RunStockExperiment(StockExperimentOptions{Seed: 2})
	})
	if stockErr != nil {
		t.Fatal(stockErr)
	}
	return stockRes
}

func TestStockExperimentStructure(t *testing.T) {
	res := stockResult(t)
	if res.Run.AdCount() != 200 {
		t.Errorf("ad count %d, want 200 (100 images × 2 copies)", res.Run.AdCount())
	}
	if len(res.Deliveries) != 100 {
		t.Errorf("deliveries %d, want 100", len(res.Deliveries))
	}
	if res.Run.TotalImpressions() < 5000 {
		t.Errorf("total impressions %d suspiciously low", res.Run.TotalImpressions())
	}
	if res.Run.TotalSpendCents() < 0.5*float64(200*200) {
		t.Errorf("spend %.0f¢ below half the committed budget", res.Run.TotalSpendCents())
	}
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		if d.Impressions <= 0 || d.FracBlack < 0 || d.FracBlack > 1 {
			t.Fatalf("delivery %s: %+v", d.Key, d)
		}
	}
}

func TestStockExperimentPaperShapes(t *testing.T) {
	// The DESIGN.md success criteria for Table 3 / Table 4a shapes.
	res := stockResult(t)
	t4 := res.Table4

	// (1) %Black: the implied-race term dominates, strongly significant,
	// positive, with a majority-Black intercept.
	black, _ := t4.Black.Coefficient("Black")
	if black < 0.05 {
		t.Errorf("Black coefficient %v, want clearly positive (paper: +0.18)", black)
	}
	if !t4.Black.Significant("Black", 0.001) {
		t.Error("Black coefficient should be significant at 0.001")
	}
	if ic := t4.Black.Coef[0]; ic < 0.40 || ic > 0.75 {
		t.Errorf("%%Black intercept %v, paper reports 0.57", ic)
	}
	if t4.Black.R2 < 0.4 {
		t.Errorf("%%Black R² = %v, paper reports 0.62", t4.Black.R2)
	}
	// The race term must dominate every other coefficient in magnitude.
	for _, name := range []string{"Child", "Teen", "Middle-aged", "Elderly"} {
		if c, _ := t4.Black.Coefficient(name); math.Abs(c) >= black {
			t.Errorf("|%s| = %v exceeds the Black effect %v", name, c, black)
		}
	}

	// (2) %Female: images of children deliver to women.
	child, _ := t4.Female.Coefficient("Child")
	if child < 0.02 {
		t.Errorf("Child coefficient %v in %%Female, want positive (paper: +0.09)", child)
	}
	if !t4.Female.Significant("Child", 0.01) {
		t.Error("Child should be significant in the percent-female model")
	}

	// (3) %65+: images of elderly people deliver to the oldest users.
	elderly, _ := t4.Age.Coefficient("Elderly")
	if elderly < 0.01 {
		t.Errorf("Elderly coefficient %v in %%65+, want positive (paper: +0.118)", elderly)
	}
	if !t4.Age.Significant("Elderly", 0.05) {
		t.Error("Elderly should be significant in the 65+ model")
	}
}

func TestStockTable3Aggregates(t *testing.T) {
	res := stockResult(t)
	byGroup := map[string]Table3Row{}
	for _, r := range res.Table3 {
		byGroup[r.Group] = r
	}
	// Black images deliver more to Black users than white images (73.8% vs
	// 56.3% in the paper).
	if byGroup["race:black"].FracBlack <= byGroup["race:white"].FracBlack+0.03 {
		t.Errorf("race rows: black-image %.3f vs white-image %.3f",
			byGroup["race:black"].FracBlack, byGroup["race:white"].FracBlack)
	}
	// Child images deliver more to women than any other age group (59.4%
	// vs ≤52.4%).
	child := byGroup["age:child"].FracFemale
	for _, g := range []string{"age:teen", "age:adult", "age:middle-aged", "age:elderly"} {
		if child <= byGroup[g].FracFemale {
			t.Errorf("child images %%female %.3f not above %s %.3f", child, g, byGroup[g].FracFemale)
		}
	}
	// Elderly images deliver oldest (80.5% 45+ in the paper, top of the
	// range).
	if byGroup["age:elderly"].FracAge45 <= byGroup["age:adult"].FracAge45 {
		t.Errorf("elderly images 45+ %.3f not above adult %.3f",
			byGroup["age:elderly"].FracAge45, byGroup["age:adult"].FracAge45)
	}
}

func TestStockFigure3And4Signatures(t *testing.T) {
	res := stockResult(t)
	ds := res.Deliveries
	// Figure 3C: images of teen women deliver to fewer women than images
	// of middle-aged-or-older women.
	teenF, _ := GroupMean(ds,
		func(d *Delivery) bool {
			return d.Profile.Gender == demo.GenderFemale && d.Profile.Age == demo.ImpliedTeen
		},
		func(d *Delivery) float64 { return d.FracFemale })
	olderF, _ := GroupMean(ds,
		func(d *Delivery) bool {
			return d.Profile.Gender == demo.GenderFemale && d.Profile.Age >= demo.ImpliedMiddleAged
		},
		func(d *Delivery) float64 { return d.FracFemale })
	if teenF >= olderF {
		t.Errorf("teen-woman images %%female %.3f not below older-woman images %.3f", teenF, olderF)
	}
	// Figure 4A: among teen images, female-presenting ones reach more men
	// 55+ than male-presenting ones.
	pts := Figure4(ds)
	for _, p := range pts {
		if p.ImpliedAge == "teen" && p.FemImgMen55 <= p.MaleImgMen55 {
			t.Errorf("teen: fem-image men55 %.3f <= male-image %.3f", p.FemImgMen55, p.MaleImgMen55)
		}
	}
	// The out-of-state leakage must be under 1% on average (§3.3).
	leak, _ := GroupMean(ds, func(*Delivery) bool { return true }, func(d *Delivery) float64 { return d.OutOfState })
	if leak > 0.012 {
		t.Errorf("mean out-of-state leakage %.4f, want < ~0.01", leak)
	}
}

func TestAgeCappedStockExperiment(t *testing.T) {
	// Campaign 2 (§5.3): capping the audience age at 45 must not remove
	// the race effect (the paper finds it *stronger*).
	l := sharedLab(t)
	res, err := l.RunStockExperiment(StockExperimentOptions{Seed: 3, AgeMax: 45, BudgetCents: 350})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table4.Target != AgeTarget35Plus {
		t.Errorf("age target %v, want 35+", res.Table4.Target)
	}
	if c, _ := res.Table4.Black.Coefficient("Black"); c < 0.05 {
		t.Errorf("age-capped Black coefficient %v", c)
	}
	// No delivery above the age cap.
	for i := range res.Deliveries {
		if res.Deliveries[i].FracAge45Plus > 0.35 {
			t.Errorf("ad %s: %.3f of delivery is 45+, audience capped at 45",
				res.Deliveries[i].Key, res.Deliveries[i].FracAge45Plus)
		}
	}
}

func TestValidateRaceInference(t *testing.T) {
	l := sharedLab(t)
	res, err := l.ValidateRaceInference(2, 70)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ads != 40 {
		t.Errorf("ads = %d, want 40", res.Ads)
	}
	if res.MeanAbsError > 0.05 {
		t.Errorf("mean inference error %.4f, want < 0.05", res.MeanAbsError)
	}
	if res.MeanOutOfState > 0.015 {
		t.Errorf("leakage %.4f", res.MeanOutOfState)
	}
}

func TestSummarizeCampaign(t *testing.T) {
	res := stockResult(t)
	row := SummarizeCampaign(res.Run, "Stock", "§5.2")
	if row.Ads != 200 || row.AgeLimit || row.Images != "Stock" {
		t.Errorf("row: %+v", row)
	}
	if row.SpendDollars <= 0 || row.Impressions <= 0 || row.Reach <= 0 {
		t.Errorf("row totals: %+v", row)
	}
	if row.Reach > row.Impressions {
		t.Errorf("reach %d > impressions %d", row.Reach, row.Impressions)
	}
}

func TestLabConfigPropagation(t *testing.T) {
	// The Behavior override flows into the platform: a zero-affinity world
	// must show no substantive race effect (coefficient near zero; with our
	// tiny standard errors even noise can reach nominal significance, so
	// the check is on magnitude).
	cfg := LabConfig{Seed: 55, Scale: ScaleTest}
	cfg.Behavior = noAffinityBehavior()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.RunStockExperiment(StockExperimentOptions{Seed: 56, PerPerson: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := res.Table4.Black.Coefficient("Black"); c > 0.06 || c < -0.06 {
		t.Errorf("zero-affinity world shows race coefficient %v, want ≈ 0", c)
	}

	// GreedyPacing flows into the platform: greedy spend buys far fewer
	// impressions for the same budget than the paced run above.
	greedyCfg := LabConfig{Seed: 55, Scale: ScaleTest, GreedyPacing: true}
	greedyCfg.Behavior = noAffinityBehavior()
	lg, err := NewLab(greedyCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	greedy, err := lg.RunStockExperiment(StockExperimentOptions{Seed: 56, PerPerson: 2})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Run.TotalImpressions()*2 >= res.Run.TotalImpressions() {
		t.Errorf("greedy run bought %d impressions vs paced %d; pacing flag not propagating",
			greedy.Run.TotalImpressions(), res.Run.TotalImpressions())
	}
}
