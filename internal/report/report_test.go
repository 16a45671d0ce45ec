package report

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/stats"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func TestBar(t *testing.T) {
	if got := bar(0.5, 0, 1, 10); strings.Count(got, "█") != 5 {
		t.Errorf("bar(0.5) = %q", got)
	}
	if got := bar(-1, 0, 1, 10); strings.Count(got, "█") != 0 {
		t.Errorf("bar clamps low: %q", got)
	}
	if got := bar(2, 0, 1, 10); strings.Count(got, "█") != 10 {
		t.Errorf("bar clamps high: %q", got)
	}
	if got := bar(math.NaN(), 0, 1, 10); strings.Count(got, "█") != 0 {
		t.Errorf("bar(NaN) = %q", got)
	}
	if got := bar(0.5, 0, 1, 0); len([]rune(got)) != 20 {
		t.Errorf("default width: %q", got)
	}
}

func TestTable1Format(t *testing.T) {
	rows := []voter.Table1Row{
		{Age: demo.Age18to24, GroupSize: 100, Total: 400},
		{Age: demo.Age65Plus, GroupSize: 200, Total: 800},
	}
	out := Table1(rows)
	for _, want := range []string{"Table 1", "18-24", "65+", "44968", "78719", "400", "800"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2Format(t *testing.T) {
	rows := []core.Table2Row{
		{Campaign: "Campaign 1", Ads: 200, Images: "Stock", Reach: 1000, Impressions: 2000, SpendDollars: 4.2, Section: "§5.2"},
		{Campaign: "Campaign 2", Ads: 200, AgeLimit: true, Images: "Stock", Section: "§5.3"},
	}
	out := Table2(rows)
	if !strings.Contains(out, "Campaign 1") || !strings.Contains(out, "Yes") || !strings.Contains(out, "No") {
		t.Errorf("Table2:\n%s", out)
	}
}

func sampleDeliveries() []core.Delivery {
	var ds []core.Delivery
	for _, p := range demo.AllProfiles() {
		d := core.Delivery{
			Key:         "k-" + p.String(),
			Profile:     p,
			Impressions: 100,
			FracBlack:   0.5,
			FracFemale:  0.5,
			AvgAge:      48,
		}
		if p.Race == demo.RaceBlack {
			d.FracBlack = 0.7
		}
		ds = append(ds, d)
	}
	return ds
}

func TestTable3Format(t *testing.T) {
	rows := core.Table3(sampleDeliveries())
	out := Table3(rows)
	for _, want := range []string{"race:black", "73.8", "age:elderly", "% Black"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func fitTable4(t *testing.T) *core.Table4 {
	t.Helper()
	t4, err := core.RegressTable4(sampleDeliveries(), core.AgeTarget65Plus)
	if err != nil {
		t.Fatal(err)
	}
	return t4
}

func TestTable4Format(t *testing.T) {
	out := Table4(fitTable4(t), "a")
	for _, want := range []string{"Table 4a", "Intercept", "Black", "Elderly", "0.1812", "R²"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q in:\n%s", want, out)
		}
	}
	// Unknown variants fall back to the 4a reference values.
	if out := Table4(fitTable4(t), "z"); !strings.Contains(out, "0.1812") {
		t.Error("unknown variant should fall back to 4a reference")
	}
	if out := Table4(fitTable4(t), "b"); !strings.Contains(out, "0.2534") {
		t.Error("variant b should show the 4b reference coefficient")
	}
}

func TestTable5Format(t *testing.T) {
	// Minimal mixed-effects fixture via the core regression.
	var ds []core.Delivery
	for ji, job := range []string{"lumber", "janitor", "nurse"} {
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for ri, r := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				ds = append(ds, core.Delivery{
					Key: job, Job: job,
					Profile:     demo.Profile{Gender: g, Race: r, Age: demo.ImpliedAdult},
					Impressions: 50,
					FracBlack:   0.4 + 0.1*float64(ri) + 0.02*float64(ji),
					FracFemale:  0.5,
				})
			}
		}
	}
	t5, err := core.RegressTable5(ds)
	if err != nil {
		t.Fatal(err)
	}
	out := Table5(t5)
	for _, want := range []string{"Table 5", "(I)", "(VI)", "0.105", "adj.R²"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q in:\n%s", want, out)
		}
	}
}

func TestTableA1Format(t *testing.T) {
	a1, err := core.TableA1(sampleDeliveries())
	if err != nil {
		t.Fatal(err)
	}
	out := TableA1(a1)
	for _, want := range []string{"Table A1", "0.0849", "Black"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableA1 missing %q", want)
		}
	}
}

func TestFigureFormats(t *testing.T) {
	ds := sampleDeliveries()
	f1 := Figure1(&core.Figure1Result{WhiteImageFracWhite: 0.56, BlackImageFracWhite: 0.29})
	if !strings.Contains(f1, "56.0%") || !strings.Contains(f1, "29%") {
		t.Errorf("Figure1:\n%s", f1)
	}
	f3 := Figure3(ds, "Figure 3")
	for _, want := range []string{"A)", "B)", "C)", "D)", "child", "elderly"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
	f4 := Figure4(core.Figure4(ds))
	if !strings.Contains(f4, "men 55+") || !strings.Contains(f4, "teen") {
		t.Errorf("Figure4:\n%s", f4)
	}
	sweep := []core.SweepCell{
		{Target: demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
			Classified: demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult}},
		{Target: demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedChild},
			Classified: demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedChild}},
	}
	f6 := Figure6(sweep)
	if !strings.Contains(f6, "1/2") {
		t.Errorf("Figure6 agreement count:\n%s", f6)
	}
	race := []core.Fig7RacePoint{{Job: "lumber", ImpliedGender: demo.GenderMale, BlackImage: 0.55, WhiteImage: 0.28}}
	gender := []core.Fig7GenderPoint{{Job: "lumber", ImpliedRace: demo.RaceWhite, FemaleImage: 0.4, MaleImage: 0.42}}
	f7 := Figure7(race, gender)
	for _, want := range []string{"lumber", "congruent", "55.0%", "28.0%"} {
		if !strings.Contains(f7, want) {
			t.Errorf("Figure7 missing %q in:\n%s", want, f7)
		}
	}
	val := Figure2Validation(&core.ValidationResult{Ads: 10, MeanAbsError: 0.01, MaxAbsError: 0.03, MeanOutOfState: 0.005})
	if !strings.Contains(val, "0.0100") {
		t.Errorf("validation:\n%s", val)
	}
	pov := PovertySummary(&core.PovertyResult{
		PreMedianWhite: 0.11, PreMedianBlack: 0.16,
		PreTest:        stats.WelchT{DeltaM: -0.04, P: 0.0001},
		PostTest:       stats.WelchT{DeltaM: -0.001, P: 0.6},
		AudienceBefore: 1000, AudienceAfter: 600,
		RejectedSpecs: 44, SurvivingSpecs: 56,
	})
	for _, want := range []string{"44 of 100", "16.0%", "11.0%"} {
		if !strings.Contains(pov, want) {
			t.Errorf("poverty summary missing %q in:\n%s", want, pov)
		}
	}
}

func TestDeliveriesCSVRoundTrip(t *testing.T) {
	ds := sampleDeliveries()
	var buf bytes.Buffer
	if err := DeliveriesCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ds)+1 {
		t.Fatalf("rows = %d, want %d", len(recs), len(ds)+1)
	}
	if recs[0][0] != "key" || recs[0][9] != "frac_black" {
		t.Errorf("header: %v", recs[0])
	}
	// Spot check a data row.
	if recs[1][1] != ds[0].Profile.Race.String() {
		t.Errorf("race column: %q", recs[1][1])
	}
}

func TestDeliveriesCSVGoldenRow(t *testing.T) {
	ds := []core.Delivery{{
		Key: "lumber-bm",
		Profile: demo.Profile{
			Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult,
		},
		Job:         "lumber",
		Impressions: 1234, Reach: 900, Clicks: 17,
		SpendCents: 420.5, FracBlack: 0.651, FracFemale: 0.25,
		FracAge35Plus: 0.5, FracAge45Plus: 0.25, FracAge65Plus: 0.1,
		AvgAge: 41.75, FracMen55Plus: 0.08, FracWomen55Plus: 0.04,
		OutOfState: 0.005,
	}}
	var buf bytes.Buffer
	if err := DeliveriesCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), buf.String())
	}
	wantRow := "lumber-bm," + ds[0].Profile.Race.String() + "," + ds[0].Profile.Gender.String() + "," +
		ds[0].Profile.Age.String() + ",lumber,1234,900,17," +
		"420.500000,0.651000,0.250000,0.500000,0.250000,0.100000,41.750000,0.080000,0.040000,0.005000"
	if lines[1] != wantRow {
		t.Errorf("CSV row mismatch:\ngot:  %s\nwant: %s", lines[1], wantRow)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestDeliveriesCSVWriterError(t *testing.T) {
	sentinel := errors.New("disk full")
	err := DeliveriesCSV(failingWriter{err: sentinel}, sampleDeliveries())
	if err == nil {
		t.Fatal("want an error from a failing writer")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v should wrap the writer's error", err)
	}
}

func TestExtensionFormats(t *testing.T) {
	obj := Objectives(&core.ObjectiveComparisonResult{Gaps: []core.ObjectiveGap{
		{Objective: "AWARENESS", RaceGap: 0.01, Impressions: 100},
		{Objective: "TRAFFIC", RaceGap: 0.13, Impressions: 200},
		{Objective: "CONVERSIONS", RaceGap: 0.20, Impressions: 300},
	}})
	for _, want := range []string{"E13", "AWARENESS", "+13.0pp"} {
		if !strings.Contains(obj, want) {
			t.Errorf("Objectives missing %q in:\n%s", want, obj)
		}
	}
	gp := GroupPhotos(&core.GroupPhotoResult{
		WhiteOnly:   core.Delivery{FracBlack: 0.4, Impressions: 100},
		DiversePair: core.Delivery{FracBlack: 0.5, Impressions: 100},
		BlackOnly:   core.Delivery{FracBlack: 0.65, Impressions: 100},
	})
	for _, want := range []string{"E14", "diverse pair", "50.0%"} {
		if !strings.Contains(gp, want) {
			t.Errorf("GroupPhotos missing %q in:\n%s", want, gp)
		}
	}
	lk := Lookalike(&core.LookalikeResult{
		SeedSize: 700, SeedFracBlack: 1,
		Expansion:      core.LookalikeResult{}.Expansion, // zero value
		BaselineRandom: core.LookalikeResult{}.BaselineRandom,
	})
	if !strings.Contains(lk, "E15") || !strings.Contains(lk, "700") {
		t.Errorf("Lookalike:\n%s", lk)
	}
}

func TestFigure3RaceCI(t *testing.T) {
	ds := sampleDeliveries()
	// One ad per (age, race) cell: insufficient for a CI.
	var single []core.Delivery
	for i := range ds {
		if ds[i].Profile.Gender == demo.GenderMale {
			single = append(single, ds[i])
		}
	}
	out := Figure3RaceCI(single, 1)
	if !strings.Contains(out, "insufficient ads") {
		t.Errorf("single-ad groups should report insufficiency:\n%s", out)
	}
	// The full set has two ads per cell, enough for intervals.
	out = Figure3RaceCI(ds, 1)
	if !strings.Contains(out, "[") || !strings.Contains(out, "child") {
		t.Errorf("CI output:\n%s", out)
	}
}
