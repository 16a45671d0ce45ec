package core

import (
	"math"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
)

func row(age, gender, region string, n int) marketing.BreakdownRow {
	return marketing.BreakdownRow{Age: age, Gender: gender, Region: region, Impressions: n}
}

func insights(rows ...marketing.BreakdownRow) *marketing.InsightsResponse {
	ins := &marketing.InsightsResponse{Breakdown: rows}
	for _, r := range rows {
		ins.Impressions += r.Impressions
	}
	ins.Reach = ins.Impressions // 1 impression per user in fixtures
	return ins
}

func adultSpec(key string) AdSpec {
	return AdSpec{
		Key:     key,
		Profile: demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
	}
}

func TestMeasureAdRunRaceInference(t *testing.T) {
	// Primary copy: FL deliveries are white voters, NC deliveries Black.
	// Reversed copy: the opposite. Construct a case with known truth:
	// primary 30 NC + 10 FL, reversed 20 FL + 40 NC
	// → Black = 30 (primary NC) + 20 (reversed FL) = 50 of 100 countable.
	run := &AdRun{Spec: adultSpec("x")}
	run.Primary = insights(
		row("25-34", "male", "NC", 30),
		row("25-34", "male", "FL", 10),
	)
	run.Reversed = insights(
		row("25-34", "male", "FL", 20),
		row("25-34", "male", "NC", 40),
	)
	d, err := MeasureAdRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impressions != 100 {
		t.Errorf("impressions = %d", d.Impressions)
	}
	if math.Abs(d.FracBlack-0.5) > 1e-12 {
		t.Errorf("FracBlack = %v, want 0.5", d.FracBlack)
	}
}

func TestMeasureAdRunExcludesOutOfState(t *testing.T) {
	run := &AdRun{Spec: adultSpec("x")}
	run.Primary = insights(
		row("25-34", "female", "NC", 50),
		row("25-34", "female", "other", 50),
	)
	d, err := MeasureAdRun(run)
	if err != nil {
		t.Fatal(err)
	}
	// All countable impressions are NC (Black) in the primary copy.
	if d.FracBlack != 1 {
		t.Errorf("FracBlack = %v, want 1 (out-of-state excluded)", d.FracBlack)
	}
	if d.OutOfState != 0.5 {
		t.Errorf("OutOfState = %v", d.OutOfState)
	}
	if d.FracFemale != 1 {
		t.Errorf("FracFemale = %v", d.FracFemale)
	}
}

func TestMeasureAdRunAgeComposition(t *testing.T) {
	run := &AdRun{Spec: adultSpec("x")}
	run.Primary = insights(
		row("18-24", "male", "FL", 25),
		row("35-44", "female", "FL", 25),
		row("55-64", "male", "FL", 25),
		row("65+", "female", "FL", 25),
	)
	d, err := MeasureAdRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if d.FracAge35Plus != 0.75 || d.FracAge45Plus != 0.5 || d.FracAge65Plus != 0.25 {
		t.Errorf("age fracs: 35+=%v 45+=%v 65+=%v", d.FracAge35Plus, d.FracAge45Plus, d.FracAge65Plus)
	}
	if d.FracMen55Plus != 0.25 || d.FracWomen55Plus != 0.25 {
		t.Errorf("55+ by gender: men=%v women=%v", d.FracMen55Plus, d.FracWomen55Plus)
	}
	wantAvg := (21.0 + 39.5 + 59.5 + 70.0) / 4
	if math.Abs(d.AvgAge-wantAvg) > 1e-9 {
		t.Errorf("AvgAge = %v, want %v", d.AvgAge, wantAvg)
	}
}

func TestMeasureAdRunErrors(t *testing.T) {
	both := &AdRun{Spec: adultSpec("x")}
	if _, err := MeasureAdRun(both); err == nil {
		t.Error("both copies nil: want error")
	}
	zero := &AdRun{Spec: adultSpec("x"), Primary: insights()}
	if _, err := MeasureAdRun(zero); err == nil {
		t.Error("zero impressions: want error")
	}
	bad := &AdRun{Spec: adultSpec("x"), Primary: insights(row("12-17", "male", "FL", 5))}
	if _, err := MeasureAdRun(bad); err == nil {
		t.Error("bad age label: want error")
	}
}

func TestMeasureCampaignSkipsRejected(t *testing.T) {
	run := &CampaignRun{Config: CampaignConfig{Name: "t"}}
	ok := AdRun{Spec: adultSpec("ok"), PrimaryStatus: "COMPLETED", ReversedStatus: "COMPLETED"}
	ok.Primary = insights(row("25-34", "male", "FL", 10))
	ok.Reversed = insights(row("25-34", "male", "NC", 10))
	rejected := AdRun{Spec: adultSpec("rej"), PrimaryStatus: "REJECTED", ReversedStatus: "COMPLETED"}
	run.Ads = []AdRun{ok, rejected}
	ds, err := MeasureCampaign(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Key != "ok" {
		t.Errorf("deliveries: %+v", ds)
	}
	allRejected := &CampaignRun{Config: CampaignConfig{Name: "t"}, Ads: []AdRun{rejected}}
	if _, err := MeasureCampaign(allRejected); err == nil {
		t.Error("all rejected: want error")
	}
}

// syntheticDeliveries builds a delivery set with planted structure:
// FracBlack = base + raceEffect·Black, FracFemale = base + childEffect·Child.
func syntheticDeliveries(raceEffect, childEffect float64) []Delivery {
	var out []Delivery
	i := 0
	for _, p := range demo.AllProfiles() {
		for k := 0; k < 3; k++ {
			d := Delivery{
				Key:           "d",
				Profile:       p,
				Impressions:   100,
				FracBlack:     0.5,
				FracFemale:    0.5,
				FracAge65Plus: 0.3,
				FracAge35Plus: 0.6,
			}
			if p.Race == demo.RaceBlack {
				d.FracBlack += raceEffect
			}
			if p.Age == demo.ImpliedChild {
				d.FracFemale += childEffect
			}
			// Deterministic jitter so OLS has residual variance.
			jit := float64((i*37)%11-5) / 1000
			d.FracBlack += jit
			d.FracFemale -= jit
			i++
			out = append(out, d)
		}
	}
	return out
}

func TestRegressTable4RecoversPlantedEffects(t *testing.T) {
	ds := syntheticDeliveries(0.2, 0.1)
	t4, err := RegressTable4(ds, AgeTarget65Plus)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := t4.Black.Coefficient("Black"); math.Abs(c-0.2) > 0.01 {
		t.Errorf("Black coefficient %v, want ≈ 0.2", c)
	}
	if !t4.Black.Significant("Black", 0.001) {
		t.Error("planted race effect should be highly significant")
	}
	if c, _ := t4.Female.Coefficient("Child"); math.Abs(c-0.1) > 0.01 {
		t.Errorf("Child coefficient %v, want ≈ 0.1", c)
	}
	if t4.Female.Significant("Female", 0.01) {
		t.Error("no planted gender effect; Female should not be significant")
	}
	if t4.Target != AgeTarget65Plus || t4.Target.String() != "% Age 65+" {
		t.Errorf("age target: %v", t4.Target)
	}
	if _, err := RegressTable4(ds[:5], AgeTarget65Plus); err == nil {
		t.Error("too few deliveries: want error")
	}
}

func TestTable3Aggregation(t *testing.T) {
	ds := syntheticDeliveries(0.2, 0.1)
	rows := Table3(ds)
	if len(rows) != 9 {
		t.Fatalf("Table3 rows = %d, want 9 (2 race + 2 gender + 5 age)", len(rows))
	}
	var blackRow, whiteRow *Table3Row
	for i := range rows {
		switch rows[i].Group {
		case "race:black":
			blackRow = &rows[i]
		case "race:white":
			whiteRow = &rows[i]
		}
	}
	if blackRow == nil || whiteRow == nil {
		t.Fatal("missing race rows")
	}
	if blackRow.Ads != 30 || whiteRow.Ads != 30 {
		t.Errorf("ads per race: %d, %d", blackRow.Ads, whiteRow.Ads)
	}
	if diff := blackRow.FracBlack - whiteRow.FracBlack; math.Abs(diff-0.2) > 0.01 {
		t.Errorf("race rows differ by %v, want 0.2", diff)
	}
}

func TestGroupMeanWeightsByImpressions(t *testing.T) {
	ds := []Delivery{
		{Impressions: 100, FracBlack: 0.2},
		{Impressions: 300, FracBlack: 0.6},
	}
	mean, ads := GroupMean(ds, func(*Delivery) bool { return true }, func(d *Delivery) float64 { return d.FracBlack })
	if ads != 2 {
		t.Errorf("ads = %d", ads)
	}
	if math.Abs(mean-0.5) > 1e-12 {
		t.Errorf("weighted mean = %v, want 0.5", mean)
	}
	if m, n := GroupMean(ds, func(*Delivery) bool { return false }, func(d *Delivery) float64 { return 1 }); m != 0 || n != 0 {
		t.Errorf("empty group: %v, %d", m, n)
	}
}

func TestRegressTable5PlantedCongruentSkew(t *testing.T) {
	// Build employment deliveries: per-job base rates plus a +0.10 Black
	// lift for Black-image ads, no gender effect.
	var ds []Delivery
	jobs := []string{"lumber", "janitor", "nurse", "doctor", "secretary", "taxi-driver"}
	for ji, job := range jobs {
		base := 0.3 + 0.05*float64(ji)
		for gi, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for ri, r := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				d := Delivery{
					Key:         job,
					Job:         job,
					Profile:     demo.Profile{Gender: g, Race: r, Age: demo.ImpliedAdult},
					Impressions: 100,
					FracBlack:   base + float64((ji+gi+ri)%5-2)*0.004,
					FracFemale:  0.5 + float64((ji*3+gi+ri)%7-3)*0.004,
				}
				if r == demo.RaceBlack {
					d.FracBlack += 0.10
				}
				ds = append(ds, d)
			}
		}
	}
	t5, err := RegressTable5(ds)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := t5.RaceOverall.Coefficient("Implied: Black"); math.Abs(c-0.10) > 0.02 {
		t.Errorf("overall race coefficient %v, want ≈ 0.10", c)
	}
	if p, _ := t5.RaceOverall.PValueOf("Implied: Black"); p > 0.001 {
		t.Errorf("planted congruent skew p = %v", p)
	}
	if p, _ := t5.GenderOverall.PValueOf("Implied: female"); p < 0.05 {
		t.Errorf("no planted gender skew, but p = %v", p)
	}
	// Missing job annotation is an error.
	bad := append([]Delivery(nil), ds...)
	bad[0].Job = ""
	if _, err := RegressTable5(bad); err == nil {
		t.Error("missing job: want error")
	}
}

func TestTableA1DropsChildImages(t *testing.T) {
	ds := syntheticDeliveries(0.15, 0)
	res, err := TableA1(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Names {
		if n == "Child" {
			t.Error("Table A1 should not include a Child term")
		}
	}
	if c, _ := res.Coefficient("Black"); math.Abs(c-0.15) > 0.02 {
		t.Errorf("Black coefficient %v", c)
	}
	if _, err := TableA1(ds[:4]); err == nil {
		t.Error("too few: want error")
	}
}

func TestFigure4Shape(t *testing.T) {
	// Plant the paper's signature: teen female images deliver heavily to
	// men 55+.
	var ds []Delivery
	for _, p := range demo.AllProfiles() {
		d := Delivery{Profile: p, Impressions: 100, FracMen55Plus: 0.2, FracWomen55Plus: 0.25}
		if p.Gender == demo.GenderFemale && p.Age == demo.ImpliedTeen {
			d.FracMen55Plus = 0.5
		}
		ds = append(ds, d)
	}
	pts := Figure4(ds)
	if len(pts) != 5 {
		t.Fatalf("Figure4 points = %d", len(pts))
	}
	var teen *Fig4Point
	for i := range pts {
		if pts[i].ImpliedAge == "teen" {
			teen = &pts[i]
		}
	}
	if teen == nil {
		t.Fatal("no teen point")
	}
	if teen.FemImgMen55 <= teen.MaleImgMen55 {
		t.Errorf("teen: female-image men55 %v <= male-image %v", teen.FemImgMen55, teen.MaleImgMen55)
	}
}

func TestCongruentRaceShare(t *testing.T) {
	pts := []Fig7RacePoint{
		{BlackImage: 0.6, WhiteImage: 0.4},
		{BlackImage: 0.5, WhiteImage: 0.45},
		{BlackImage: 0.3, WhiteImage: 0.5},
		{BlackImage: 0.7, WhiteImage: 0.2},
	}
	if got := CongruentRaceShare(pts); got != 0.75 {
		t.Errorf("CongruentRaceShare = %v", got)
	}
	if !math.IsNaN(CongruentRaceShare(nil)) {
		t.Error("empty: want NaN")
	}
}

func TestCampaignConfigDefaults(t *testing.T) {
	cfg := CampaignConfig{Name: "x", BudgetCents: 200}
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	if cfg.Objective != "TRAFFIC" || cfg.Special != "" || cfg.AccountAge != 2019 {
		t.Errorf("defaults: %+v", cfg)
	}
	if !strings.HasPrefix(cfg.LinkURL, "https://") {
		t.Errorf("link URL: %q", cfg.LinkURL)
	}
	if err := (&CampaignConfig{Name: "x"}).resolve(); err == nil || !strings.Contains(err.Error(), "BudgetCents") {
		t.Errorf("zero budget: %v, want a refusal naming BudgetCents", err)
	}
}

func TestShapeChecksOnFixtures(t *testing.T) {
	// A planted-effect delivery set should pass the stock checks it covers.
	ds := syntheticDeliveries(0.2, 0.1)
	for i := range ds {
		// Make elderly images deliver oldest and teen-women reach old men.
		if ds[i].Profile.Age == demo.ImpliedElderly {
			ds[i].FracAge65Plus += 0.1
		}
		if ds[i].Profile.Age == demo.ImpliedTeen && ds[i].Profile.Gender == demo.GenderFemale {
			ds[i].FracMen55Plus = 0.4
		} else {
			ds[i].FracMen55Plus = 0.2
		}
		ds[i].OutOfState = 0.004
	}
	t4, err := RegressTable4(ds, AgeTarget65Plus)
	if err != nil {
		t.Fatal(err)
	}
	stock := &StockResult{Deliveries: ds, Table4: t4}
	checks := ShapeChecks(stock, nil, nil, nil, nil, nil)
	if len(checks) != 7 {
		t.Fatalf("checks = %d, want 7 stock checks", len(checks))
	}
	byID := map[string]Check{}
	for _, c := range checks {
		byID[c.ID] = c
	}
	for _, id := range []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"} {
		if !byID[id].Pass {
			t.Errorf("check %s failed on planted fixtures: %s", id, byID[id].Detail)
		}
	}
	// Nil inputs mean no checks at all, and AllPass rejects the empty set.
	if got := ShapeChecks(nil, nil, nil, nil, nil, nil); len(got) != 0 {
		t.Errorf("nil inputs produced %d checks", len(got))
	}
	if AllPass(nil) {
		t.Error("AllPass(empty) should be false")
	}
	if !AllPass(checks) {
		t.Error("planted fixtures should pass all checks")
	}
}

func TestCampaignRunTotals(t *testing.T) {
	run := &CampaignRun{Config: CampaignConfig{Name: "totals"}}
	a := AdRun{Spec: adultSpec("a")}
	a.Primary = insights(row("25-34", "male", "FL", 10))
	a.Primary.Clicks = 2
	a.Primary.SpendCents = 150
	a.Reversed = insights(row("25-34", "male", "NC", 20))
	a.Reversed.SpendCents = 50
	b := AdRun{Spec: adultSpec("b"), PrimaryStatus: "REJECTED"}
	b.Reversed = insights(row("65+", "female", "NC", 5))
	run.Ads = []AdRun{a, b}

	if got := run.AdCount(); got != 4 {
		t.Errorf("AdCount = %d, want 4", got)
	}
	if got := run.TotalImpressions(); got != 35 {
		t.Errorf("TotalImpressions = %d, want 35", got)
	}
	if got := run.TotalReach(); got != 35 {
		t.Errorf("TotalReach = %d, want 35", got)
	}
	if got := run.TotalSpendCents(); got != 200 {
		t.Errorf("TotalSpendCents = %v, want 200", got)
	}
	if !run.Ads[1].Rejected() {
		t.Error("ad with a rejected copy should report Rejected")
	}
	if run.Ads[0].Rejected() {
		t.Error("fully delivered ad should not report Rejected")
	}
}

func TestTable4FDRSignificant(t *testing.T) {
	ds := syntheticDeliveries(0.2, 0.1)
	t4, err := RegressTable4(ds, AgeTarget65Plus)
	if err != nil {
		t.Fatal(err)
	}
	surviving := t4.FDRSignificant(0.05)
	foundRace := false
	for _, s := range surviving {
		if s == "%Black:Black" {
			foundRace = true
		}
	}
	if !foundRace {
		t.Errorf("planted race effect should survive FDR; got %v", surviving)
	}
	// The age model has no planted effects: nothing from it should survive
	// a strict level.
	for _, s := range t4.FDRSignificant(1e-6) {
		if s != "%Black:Black" && s != "%Female:Child" {
			t.Errorf("unexpected survivor at strict level: %s", s)
		}
	}
}
