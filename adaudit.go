// Package adaudit is the public API of the reproduction of "Measurement and
// Analysis of Implied Identity in Ad Delivery Optimization" (Kaplan, Gerzon,
// Mislove, Sapiezynski; IMC 2022).
//
// The paper audits how an advertising platform's delivery optimization
// reacts to the demographics of the person pictured in an ad. This module
// reproduces the study end to end on a simulated substrate:
//
//   - a Lab assembles the world: synthetic FL/NC voter registries, drawn
//     once and kept as compact voter indexes (a PII digest and the
//     demographics per voter), a user population matched from them in the
//     same pass, and an ad-platform simulator whose
//     machine-learned estimated-action-rate model drives a paced
//     second-price auction, served over an HTTP marketing API;
//   - the audit methodology — balanced audiences (Table 1), the
//     region-split race measurement with reversed copies (Figure 2),
//     controlled campaigns where only the image varies — runs against that
//     API exactly the way the paper's authors ran it against Facebook;
//   - experiment runners regenerate every table and figure in the paper's
//     evaluation, and the report functions render them next to the
//     published values.
//
// # Quick start
//
//	lab, err := adaudit.NewLab(adaudit.LabConfig{Seed: 1, Scale: adaudit.ScaleTest})
//	if err != nil { ... }
//	defer lab.Close()
//	res, err := lab.RunStockExperiment(adaudit.StockExperimentOptions{Seed: 2})
//	if err != nil { ... }
//	fmt.Print(adaudit.FormatTable4(res.Table4, "a"))
//
// The delivery skews the experiments measure are emergent: the platform's
// auction contains no demographic rules; its eAR model is a logistic
// regression trained on engagement logs generated by a documented
// ground-truth behaviour model, mirroring the causal pathway the paper
// hypothesizes (§2.1). Disable it with LabConfig.DisableEAR and the skews
// vanish (ablation A1).
package adaudit

import (
	"io"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/report"
)

// Core environment types.
type (
	// Lab is a fully assembled audit environment. See core.Lab.
	Lab = core.Lab
	// LabConfig configures the simulated world.
	LabConfig = core.LabConfig
	// Scale selects a simulation size preset.
	Scale = core.Scale
	// Evaluation is the paper's whole evaluation over one lazily built Lab:
	// Campaigns 1-4, Figure 1, Appendix A and the extensions, each run once
	// with its seed fixed, in the paper's order. See core.Evaluation.
	Evaluation = core.Evaluation
)

// Scale presets.
const (
	ScaleTest  = core.ScaleTest
	ScaleBench = core.ScaleBench
	ScaleFull  = core.ScaleFull
)

// NewLab builds the simulated world: voter indexes, population, trained
// platform, and a live marketing API with a client pointed at it.
func NewLab(cfg LabConfig) (*Lab, error) { return core.NewLab(cfg) }

// Experiment options and results.
type (
	StockExperimentOptions      = core.StockExperimentOptions
	StockResult                 = core.StockResult
	SyntheticExperimentOptions  = core.SyntheticExperimentOptions
	SyntheticResult             = core.SyntheticResult
	EmploymentExperimentOptions = core.EmploymentExperimentOptions
	EmploymentResult            = core.EmploymentResult
	PovertyExperimentOptions    = core.PovertyExperimentOptions
	PovertyResult               = core.PovertyResult
	Figure1Result               = core.Figure1Result
	ValidationResult            = core.ValidationResult
	SyntheticPipeline           = core.SyntheticPipeline
	ObjectiveComparisonResult   = core.ObjectiveComparisonResult
	ObjectiveGap                = core.ObjectiveGap
	GroupPhotoResult            = core.GroupPhotoResult
	LookalikeResult             = core.LookalikeResult
	FeedbackLoopResult          = core.FeedbackLoopResult
	FeedbackRound               = core.FeedbackRound
	Check                       = core.Check
	PowerOptions                = core.PowerOptions
)

// Measurement and analysis types.
type (
	AdSpec          = core.AdSpec
	CampaignConfig  = core.CampaignConfig
	CampaignRun     = core.CampaignRun
	Delivery        = core.Delivery
	SplitAudiences  = core.SplitAudiences
	Table4          = core.Table4
	Table5          = core.Table5
	Table2Row       = core.Table2Row
	Table3Row       = core.Table3Row
	Fig4Point       = core.Fig4Point
	Fig7RacePoint   = core.Fig7RacePoint
	Fig7GenderPoint = core.Fig7GenderPoint
	SweepCell       = core.SweepCell
)

// NewSyntheticPipeline runs the §5.4 setup: train the face classifier,
// sample faces from the generative network, and fit latent demographic
// directions by regression on activations.
func NewSyntheticPipeline(samples int, seed int64) (*SyntheticPipeline, error) {
	return core.NewSyntheticPipeline(samples, seed)
}

// Figure4 computes the Figure 4 older-audience series from deliveries.
func Figure4(ds []Delivery) []Fig4Point { return core.Figure4(ds) }

// SummarizeCampaign builds a Table 2 ledger row.
func SummarizeCampaign(run *CampaignRun, images, section string) Table2Row {
	return core.SummarizeCampaign(run, images, section)
}

// Report formatting: each returns the artifact rendered as text with the
// paper's published values alongside.

// FormatTable2 renders the campaign ledger.
func FormatTable2(rows []Table2Row) string { return report.Table2(rows) }

// FormatTable3 renders the delivery breakdown table.
func FormatTable3(rows []Table3Row) string { return report.Table3(rows) }

// FormatTable4 renders a Table 4 regression variant ("a", "b", or "c").
func FormatTable4(t *Table4, variant string) string { return report.Table4(t, variant) }

// FormatTable5 renders the mixed-effects employment-ad table.
func FormatTable5(t *Table5) string { return report.Table5(t) }

// FormatFigure1 renders the headline job-ad contrast.
func FormatFigure1(res *Figure1Result) string { return report.Figure1(res) }

// FormatFigure3 renders the four delivery panels (also used for Figure 5).
func FormatFigure3(ds []Delivery, title string) string { return report.Figure3(ds, title) }

// FormatFigure4 renders the older-audience panels.
func FormatFigure4(points []Fig4Point) string { return report.Figure4(points) }

// FormatFigure6 renders the latent-attribute sweep.
func FormatFigure6(sweep []SweepCell) string { return report.Figure6(sweep) }

// FormatFigure7 renders the employment-ad congruence panels.
func FormatFigure7(race []Fig7RacePoint, gender []Fig7GenderPoint) string {
	return report.Figure7(race, gender)
}

// FormatPovertySummary renders the Appendix A context numbers.
func FormatPovertySummary(res *PovertyResult) string { return report.PovertySummary(res) }

// WriteDeliveriesCSV writes per-ad delivery measurements as CSV.
func WriteDeliveriesCSV(w io.Writer, ds []Delivery) error { return report.DeliveriesCSV(w, ds) }

// ShapeChecks evaluates the paper's headline findings programmatically
// against the reproduction's results. Nil inputs skip their checks.
func ShapeChecks(stock, capped *StockResult, syn *SyntheticResult, emp *EmploymentResult, pov *PovertyResult, val *ValidationResult) []Check {
	return core.ShapeChecks(stock, capped, syn, emp, pov, val)
}

// AuditPower returns the probability that an audit design detects a skew of
// the given size (analytic two-proportion model).
func AuditPower(o PowerOptions) (float64, error) { return core.AuditPower(o) }

// MinimumPairs returns the smallest number of image pairs achieving the
// target power.
func MinimumPairs(o PowerOptions, targetPower float64) (int, error) {
	return core.MinimumPairs(o, targetPower)
}
