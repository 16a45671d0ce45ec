package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"github.com/adaudit/impliedidentity/internal/privacy"
)

func TestPrivateAuditPowerReducesToPlain(t *testing.T) {
	base := PowerOptions{Delta: 0.18, BaseRate: 0.65, ImpressionsPerAd: 180, Pairs: 50}
	plain, err := AuditPower(base)
	if err != nil {
		t.Fatal(err)
	}
	private, err := PrivateAuditPower(PrivacyPowerOptions{PowerOptions: base})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-private) > 1e-12 {
		t.Errorf("no privacy: private power %v != plain %v", private, plain)
	}
}

func TestPrivateAuditPowerSuppressionCliff(t *testing.T) {
	o := PrivacyPowerOptions{
		PowerOptions: PowerOptions{Delta: 0.18, BaseRate: 0.65, ImpressionsPerAd: 180, Pairs: 50},
		K:            100, // 180 × 0.05 = 9 < 100: cells withheld
	}
	p, err := PrivateAuditPower(o)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("below the suppression cliff power should be exactly 0, got %v", p)
	}
	// Above the cliff the same k is harmless: suppression is a threshold,
	// not a tax.
	o.ImpressionsPerAd = 100_000
	p, err = PrivateAuditPower(o)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 {
		t.Errorf("far above the cliff power should be ≈1, got %v", p)
	}
}

func TestPrivateAuditPowerNoiseIsATax(t *testing.T) {
	base := PrivacyPowerOptions{
		PowerOptions: PowerOptions{Delta: 0.1, BaseRate: 0.55, ImpressionsPerAd: 180, Pairs: 10},
	}
	clean, err := PrivateAuditPower(base)
	if err != nil {
		t.Fatal(err)
	}
	prev := clean
	for _, eps := range []float64{3, 1, 0.3, 0.1} {
		o := base
		o.Epsilon = eps
		p, err := PrivateAuditPower(o)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Errorf("eps=%v: power %v should be below %v (noise grows as eps shrinks)", eps, p, prev)
		}
		prev = p
	}
	if _, err := PrivateAuditPower(PrivacyPowerOptions{PowerOptions: base.PowerOptions, K: -1}); err == nil {
		t.Error("negative k: want error")
	}
	if _, err := PrivateAuditPower(PrivacyPowerOptions{PowerOptions: base.PowerOptions, Epsilon: -1}); err == nil {
		t.Error("negative epsilon: want error")
	}
}

func TestMinimumImpressionsForPower(t *testing.T) {
	o := PrivacyPowerOptions{
		PowerOptions: PowerOptions{Delta: 0.1, BaseRate: 0.55, Pairs: 25},
		K:            20,
		Epsilon:      1,
	}
	m, err := MinimumImpressionsForPower(o, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// The answer must clear the suppression cliff (K / minCellShare = 400).
	if m < 400 {
		t.Errorf("minimum impressions %d below the suppression floor 400", m)
	}
	o.ImpressionsPerAd = m
	pAt, err := PrivateAuditPower(o)
	if err != nil {
		t.Fatal(err)
	}
	if pAt < 0.8 {
		t.Errorf("power at the returned minimum %d is %v, want ≥ 0.8", m, pAt)
	}
	if m > 400 {
		o.ImpressionsPerAd = m - 1
		pBelow, err := PrivateAuditPower(o)
		if err != nil {
			t.Fatal(err)
		}
		if pBelow >= 0.8 {
			t.Errorf("power already %v at %d impressions", pBelow, m-1)
		}
	}
	// Stricter noise demands a bigger campaign. Compare at K=0 so the
	// suppression floor (which both levels clear) doesn't mask the noise
	// term the way it does above.
	loose := PrivacyPowerOptions{
		PowerOptions: PowerOptions{Delta: 0.05, BaseRate: 0.55, Pairs: 5},
		Epsilon:      1,
	}
	ml, err := MinimumImpressionsForPower(loose, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	strict := loose
	strict.Epsilon = 0.1
	ms, err := MinimumImpressionsForPower(strict, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= ml {
		t.Errorf("eps=0.1 minimum %d should exceed eps=1 minimum %d", ms, ml)
	}
	if _, err := MinimumImpressionsForPower(o, 1.5); err == nil {
		t.Error("bad target power: want error")
	}
}

// TestRunPrivacySweep delivers one small stock campaign and sweeps the full
// grid over it: the off cell must reproduce the raw measurement, stricter
// levels must only lose information, the record must round-trip through
// JSON, and the lab must come back with privacy off.
func TestRunPrivacySweep(t *testing.T) {
	l := sharedLab(t)
	stock, err := l.RunStockExperiment(StockExperimentOptions{Seed: 4400, PerPerson: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPrivacySweep(l, stock.Run, 4401)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 3×3 grid", len(res.Cells))
	}
	off := res.Cells[0]
	if off.Level != "off" || off.K != 0 || off.Epsilon != 0 {
		t.Fatalf("first cell should be privacy off, got %+v", off)
	}
	if off.SuppressedAds != 0 || off.SuppressedCellsTotal != 0 {
		t.Errorf("off cell should suppress nothing: %+v", off)
	}
	if off.MeasurableAds == 0 {
		t.Fatal("off cell measured no ads")
	}
	if math.Abs(math.Abs(off.RaceGap)-res.BaselineRaceGap) > 1e-12 {
		t.Errorf("off-cell race gap %v inconsistent with baseline %v", off.RaceGap, res.BaselineRaceGap)
	}
	for _, c := range res.Cells {
		if c.MeasurableAds+c.SuppressedAds > off.MeasurableAds {
			t.Errorf("cell k=%d eps=%v accounts for more ads than exist: %+v", c.K, c.Epsilon, c)
		}
		if c.K >= 100 && c.SuppressedCellsTotal == 0 && c.MeasurableAds == off.MeasurableAds {
			t.Errorf("k=%d suppressed nothing at test scale: %+v", c.K, c)
		}
		if c.AnalyticPower < 0 || c.AnalyticPower > 1 {
			t.Errorf("analytic power %v outside [0,1]", c.AnalyticPower)
		}
	}

	// The record must be JSON-encodable (no NaN leaks from empty contrasts).
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("sweep record not encodable: %v", err)
	}

	// Determinism: the same sweep again yields the same bytes.
	res2, err := RunPrivacySweep(l, stock.Run, 4401)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("sweep is not deterministic for a fixed seed")
	}

	// The sweep must leave the live server unprivatized.
	ad := firstDeliveredAdID(t, stock.Run)
	resp, err := l.Client.Insights(context.Background(), ad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Privacy != nil {
		t.Error("lab privacy not restored to off after sweep")
	}
}

func firstDeliveredAdID(t *testing.T, run *CampaignRun) string {
	t.Helper()
	for i := range run.Ads {
		if !run.Ads[i].Rejected() && run.Ads[i].PrimaryID != "" {
			return run.Ads[i].PrimaryID
		}
	}
	t.Fatal("no delivered ads in campaign")
	return ""
}

// The suppression-aware measurement must treat a fully-withheld breakdown as
// an unmeasurable ad, not an error: crank k beyond any cell's size.
func TestMeasureUnderPrivacyTotalSuppression(t *testing.T) {
	l := sharedLab(t)
	stock, err := l.RunStockExperiment(StockExperimentOptions{Seed: 4500, PerPerson: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := privacy.Config{Level: privacy.LevelKAnon, K: 1 << 20}
	m, err := measureUnderPrivacy(l, stock.Run, cfg)
	l.SetPrivacy(privacy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.deliveries) != 0 {
		t.Errorf("k=2^20 should suppress every ad, measured %d", len(m.deliveries))
	}
	if m.suppressedAds == 0 {
		t.Error("expected suppressed ads to be counted")
	}
}

// TestLabSetPrivacyRefusesInvalidPolicy: the lab refuses a policy Validate
// refuses — an unknown level, a negative K — and its live server keeps
// answering under the policy already in force; the sweep's measurement
// passes the refusal up instead of re-reading under it.
func TestLabSetPrivacyRefusesInvalidPolicy(t *testing.T) {
	l := sharedLab(t)
	stock, err := l.RunStockExperiment(StockExperimentOptions{Seed: 4600, PerPerson: 1})
	if err != nil {
		t.Fatal(err)
	}
	kept := privacy.Config{Level: privacy.LevelKAnon, K: 20}
	if err := l.SetPrivacy(kept); err != nil {
		t.Fatalf("valid policy refused: %v", err)
	}
	t.Cleanup(func() {
		if err := l.SetPrivacy(privacy.Config{}); err != nil {
			t.Error(err)
		}
	})
	ad := firstDeliveredAdID(t, stock.Run)
	for _, bad := range []privacy.Config{
		{Level: privacy.LevelKAnonDP + 1, K: 20},
		{Level: privacy.LevelKAnon, K: -1},
	} {
		if err := l.SetPrivacy(bad); err == nil {
			t.Errorf("SetPrivacy(%+v) accepted", bad)
		}
		if _, err := measureUnderPrivacy(l, stock.Run, bad); err == nil {
			t.Errorf("measureUnderPrivacy(%+v) accepted", bad)
		}
		resp, err := l.Client.Insights(context.Background(), ad)
		if err != nil {
			t.Fatal(err)
		}
		if p := resp.Privacy; p == nil || p.Level != "k-anon" || p.K != 20 {
			t.Errorf("after refusing %+v the server answers under %+v, want the kept k-anon K=20", bad, p)
		}
	}
}
