package report

import (
	"fmt"
	"strings"

	"github.com/adaudit/impliedidentity/internal/core"
)

// Objectives renders the E13 comparison.
func Objectives(res *core.ObjectiveComparisonResult) string {
	var b strings.Builder
	b.WriteString("E13 — race skew by delivery objective (the paper ran Traffic only)\n")
	fmt.Fprintf(&b, "%-12s %12s %14s\n", "objective", "race gap", "impressions")
	for _, g := range res.Gaps {
		fmt.Fprintf(&b, "%-12s %+10.1fpp %14d  %s\n", g.Objective, 100*g.RaceGap, g.Impressions, bar(g.RaceGap, 0, 0.3, 16))
	}
	b.WriteString("Awareness ignores the action-rate model, so its skew collapses;\n")
	b.WriteString("the optimized objectives reproduce the congruent race skew.\n")
	return b.String()
}

// GroupPhotos renders the E14 result.
func GroupPhotos(res *core.GroupPhotoResult) string {
	var b strings.Builder
	b.WriteString("E14 — single-person images vs a two-person diverse group photo (§7 future work)\n")
	rows := []struct {
		label string
		d     *core.Delivery
	}{
		{"white man only", &res.WhiteOnly},
		{"diverse pair", &res.DiversePair},
		{"Black man only", &res.BlackOnly},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %5.1f%% Black delivery %s (%d impressions)\n",
			r.label, 100*r.d.FracBlack, bar(r.d.FracBlack, 0.2, 0.9, 20), r.d.Impressions)
	}
	below, above := res.Spread()
	fmt.Fprintf(&b, "the group photo sits between the extremes (Δbelow=%.1fpp, Δabove=%.1fpp)\n",
		100*below, 100*above)
	return b.String()
}

// Lookalike renders the E15 result.
func Lookalike(res *core.LookalikeResult) string {
	var b strings.Builder
	b.WriteString("E15 — lookalike expansion from a Black-voter seed, demographic features excluded\n")
	fmt.Fprintf(&b, "  seed audience:      %6d accounts, %5.1f%% Black\n", res.SeedSize, 100*res.SeedFracBlack)
	fmt.Fprintf(&b, "  lookalike expansion:%6d accounts, %5.1f%% Black %s\n",
		res.Expansion.Size, 100*res.Expansion.FracBlack, bar(res.Expansion.FracBlack, 0, 1, 20))
	fmt.Fprintf(&b, "  random baseline:    %6d accounts, %5.1f%% Black %s\n",
		res.BaselineRandom.Size, 100*res.BaselineRandom.FracBlack, bar(res.BaselineRandom.FracBlack, 0, 1, 20))
	fmt.Fprintf(&b, "  lift over baseline: %+.1f points — ZIP segregation proxies race even when\n", res.Lift())
	b.WriteString("  the expansion model never sees a demographic feature (cf. the paper's ref [58]).\n")
	return b.String()
}

// FeedbackLoop renders the E16 result.
func FeedbackLoop(res *core.FeedbackLoopResult) string {
	var b strings.Builder
	b.WriteString("E16 — skew under the engagement feedback loop (retrain on served impressions)\n")
	fmt.Fprintf(&b, "%-8s %12s %14s\n", "round", "Black coef", "served buffer")
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, "%-8d %12.4f %14d  %s\n", r.Round, r.BlackCoef, r.ServedLog, bar(r.BlackCoef, 0, 0.4, 16))
	}
	b.WriteString("the congruent race skew persists when the model is trained on its own traffic\n")
	return b.String()
}

// Checklist renders the automated shape-verification results.
func Checklist(checks []core.Check) string {
	var b strings.Builder
	b.WriteString("Shape verification — the paper's headline findings, checked programmatically\n")
	pass := 0
	for _, c := range checks {
		mark := "FAIL"
		if c.Pass {
			mark = "pass"
			pass++
		}
		fmt.Fprintf(&b, "  [%s] %-4s %s\n         %s\n", mark, c.ID, c.Description, c.Detail)
	}
	fmt.Fprintf(&b, "%d/%d checks passed\n", pass, len(checks))
	return b.String()
}

// Power renders the audit-design power table at the paper's design: ads that
// average ≈ 180 countable impressions around a 0.55 base rate, and the
// 18-point Table 4a race effect.
func Power() (string, error) {
	design := core.PowerOptions{BaseRate: 0.55, ImpressionsPerAd: 180}
	pairCounts := []int{1, 5, 10, 25, 50, 100}
	var b strings.Builder
	b.WriteString("Audit power analysis — probability of detecting a delivery skew\n")
	b.WriteString("(two-sided α = 0.05, base rate 0.55; the paper's ads averaged ≈ 180 countable impressions)\n")
	fmt.Fprintf(&b, "%-9s", "delta")
	for _, k := range pairCounts {
		fmt.Fprintf(&b, " %7d", k)
	}
	b.WriteString("\n")
	for _, design.Delta = range []float64{0.02, 0.05, 0.10, 0.18, 0.25} {
		fmt.Fprintf(&b, "%-8.2f", design.Delta)
		for _, design.Pairs = range pairCounts {
			p, err := core.AuditPower(design)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %6.1f%%", 100*p)
		}
		b.WriteString("\n")
	}
	design.Delta = 0.18
	k, err := core.MinimumPairs(design, 0.95)
	fmt.Fprintf(&b, "pairs needed for 95%% power on the paper's 18-point race effect: %d (paper ran 50)\n", k)
	return b.String(), err
}

// PrivacySweep renders the skew-detectability grid.
func PrivacySweep(res *core.PrivacySweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Privacy skew-detectability sweep (scale=%s, α=%.2f, target power %.0f%%)\n",
		res.Scale, res.Alpha, 100*res.TargetPower)
	fmt.Fprintf(&b, "baseline: race gap %+.4f, gender gap %+.4f, ≈%d impressions/ad, %d pairs/group\n",
		res.BaselineRaceGap, res.BaselineGenderGap, res.ImpressionsPerAd, res.PairsPerGroup)
	fmt.Fprintf(&b, "%-10s %5s %7s %6s %6s %7s %9s %8s %9s %8s %7s %9s\n",
		"level", "k", "eps", "meas", "supp", "cells", "raceGap", "raceP", "genderGap", "genderP", "power", "minImps")
	mark := func(measured, detected bool, p float64) string {
		if !measured {
			return "—"
		}
		if detected {
			return fmt.Sprintf("%.3f*", p)
		}
		return fmt.Sprintf("%.3f", p)
	}
	for _, c := range res.Cells {
		eps, minImps := "∞", "—"
		if c.Epsilon > 0 {
			eps = fmt.Sprintf("%.1f", c.Epsilon)
		}
		if c.MinImpressionsPerAd > 0 {
			minImps = fmt.Sprint(c.MinImpressionsPerAd)
		}
		fmt.Fprintf(&b, "%-10s %5d %7s %6d %6d %7d %+9.4f %8s %+9.4f %8s %6.1f%% %9s\n",
			c.Level, c.K, eps, c.MeasurableAds, c.SuppressedAds, c.SuppressedCellsTotal,
			c.RaceGap, mark(c.RaceMeasured, c.RaceDetected, c.RaceP),
			c.GenderGap, mark(c.GenderMeasured, c.GenderDetected, c.GenderP),
			100*c.AnalyticPower, minImps)
	}
	b.WriteString("(* = skew detected at α; power and minImps are the analytic model at the baseline effect size)\n")
	return b.String()
}

// The ablation lines: what one lab of `adaudit run ablations` read, under
// its group's title.

// AblationFit renders a stock campaign's race coefficient with its fit (A1).
func AblationFit(_ string, r core.AblationReading) string {
	fit := r.Stock.Table4.Black
	c, _ := fit.Coefficient("Black")
	p, _ := fit.PValueOf("Black")
	return fmt.Sprintf("  Black coefficient %.4f (p=%.2g, R²=%.3f) — skew vanishes without eAR\n", c, p, fit.R2)
}

// AblationCoefficient renders a stock campaign's race coefficient (A2).
func AblationCoefficient(label string, r core.AblationReading) string {
	c, _ := r.Stock.Table4.Black.Coefficient("Black")
	return fmt.Sprintf("  %s: Black coefficient %.4f\n", label, c)
}

// AblationLeakage renders a validation run's leakage and error (A3).
func AblationLeakage(label string, r core.AblationReading) string {
	return fmt.Sprintf("  %-12s leakage %.2f%%, inference error %.4f\n", label, 100*r.Validation.MeanOutOfState, r.Validation.MeanAbsError)
}

// AblationError renders a validation run's aggregated error (A4).
func AblationError(_ string, r core.AblationReading) string {
	return fmt.Sprintf("  aggregated inference error %.4f — confounder cancelled\n", r.Validation.MeanAbsError)
}

// AblationSpend renders a stock campaign's delivery totals (A5).
func AblationSpend(label string, r core.AblationReading) string {
	run := r.Stock.Run
	return fmt.Sprintf("  %s: %d impressions, %.2f$ spend across %d ads\n",
		label, run.TotalImpressions(), run.TotalSpendCents()/100, run.AdCount())
}
