package core

import (
	"testing"
)

func TestObjectiveComparison(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunObjectiveComparison(1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 3 {
		t.Fatalf("gaps = %d", len(res.Gaps))
	}
	byObj := map[string]ObjectiveGap{}
	for _, g := range res.Gaps {
		byObj[g.Objective] = g
		if g.Impressions == 0 {
			t.Fatalf("%s delivered nothing", g.Objective)
		}
	}
	aw, tr, cv := byObj["AWARENESS"], byObj["TRAFFIC"], byObj["CONVERSIONS"]
	// Awareness ignores the action-rate model: its skew must be small and
	// clearly below the optimized objectives'.
	if aw.RaceGap > 0.08 || aw.RaceGap < -0.08 {
		t.Errorf("awareness race gap %.3f, want near zero", aw.RaceGap)
	}
	if tr.RaceGap < aw.RaceGap+0.05 {
		t.Errorf("traffic gap %.3f not clearly above awareness %.3f", tr.RaceGap, aw.RaceGap)
	}
	if cv.RaceGap < aw.RaceGap+0.05 {
		t.Errorf("conversions gap %.3f not clearly above awareness %.3f", cv.RaceGap, aw.RaceGap)
	}
	if cv.Impressions == 0 || tr.Impressions == 0 {
		t.Error("optimized objectives delivered nothing")
	}
}

func TestGroupPhotoExperiment(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunGroupPhotoExperiment(1600)
	if err != nil {
		t.Fatal(err)
	}
	below, above := res.Spread()
	// The diverse pair must land strictly between the single-person
	// extremes.
	if below <= 0 {
		t.Errorf("pair (%.3f) not above white-only (%.3f)", res.DiversePair.FracBlack, res.WhiteOnly.FracBlack)
	}
	if above <= 0 {
		t.Errorf("pair (%.3f) not below Black-only (%.3f)", res.DiversePair.FracBlack, res.BlackOnly.FracBlack)
	}
}

func TestLookalikeExperiment(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RunLookalikeExperiment(1700)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedSize == 0 {
		t.Fatal("seed matched no accounts")
	}
	if res.Expansion.Size == 0 || res.BaselineRandom.Size == 0 {
		t.Fatalf("empty audiences: expansion %d baseline %d", res.Expansion.Size, res.BaselineRandom.Size)
	}
	// The "color-blind" expansion must be substantially more Black than the
	// random baseline — the ref [58] finding, via ZIP segregation.
	if res.Lift() < 10 {
		t.Errorf("lookalike lift %.1f points over baseline (%.3f vs %.3f), want >= 10",
			res.Lift(), res.Expansion.FracBlack, res.BaselineRandom.FracBlack)
	}
}

func TestFeedbackLoop(t *testing.T) {
	// A fresh lab: the feedback loop mutates the platform's model.
	l, err := NewLab(LabConfig{Seed: 77, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.RunFeedbackLoop(1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		// The congruent skew survives every retraining round.
		if r.BlackCoef < 0.03 {
			t.Errorf("round %d: Black coefficient %v collapsed under retraining", r.Round, r.BlackCoef)
		}
	}
	// The served buffer actually accumulated before each retrain.
	if res.Rounds[1].ServedLog == 0 {
		t.Error("no served impressions logged")
	}
}
