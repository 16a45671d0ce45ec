package core

import (
	"fmt"
	"io"

	"github.com/adaudit/impliedidentity/internal/voter"
)

// Seed offsets from Evaluation.Seed — the one place they are written down.
// Each experiment adds its own small offsets (+10..+62) on top.
const (
	seedTable1          = 50
	seedStock           = 100
	seedStockCapped     = 200
	seedSynthetic       = 300
	seedEmployment      = 400
	seedPoverty         = 500
	seedFigure1         = 601
	seedValidation      = 700
	seedSideLabs        = 790 // ablation group g: world at +790+10g, read at one more
	seedObjectives      = 900
	seedGroups          = 910
	seedLookalike       = 920
	seedFeedback        = 930 // a side lab too: world at +930, read at +931
	seedCheckValidation = 940
	seedBootstrap       = 950
	seedPrivacy         = 1000
)

// Evaluation is the paper's evaluation as one value: one ad account (a Lab,
// built on first use) running Campaigns 1-4, Figure 1's pair and Appendix A
// in the paper's order (Table 2), plus the extensions that read the same
// world. Every step runs at most once and remembers its outcome, and a step
// that stands on another's history calls it first — Campaign 4 and Figure 1
// composite the faces of Campaign 3's pipeline, Appendix A reads the
// account's review stream where the five ad sets before it leave it — so a
// result is a function of (Seed, Scale) and of nothing that ran earlier.
// Not safe for concurrent use.
type Evaluation struct {
	Seed int64
	// Scale is one of the presets (its zero is ScaleTest); the first step
	// refuses any other, as NewLab does.
	Scale Scale
	// Out receives the progress lines ("running Campaign 1 ..."), which are
	// part of the transcript; Err receives the lab's URL, the one line that
	// differs from run to run. Nil discards.
	Out, Err io.Writer

	lab                    memo[*Lab]
	stock, stockCapped     memo[*StockResult]
	synthetic              memo[*SyntheticResult]
	figure1                memo[*Figure1Result]
	employment             memo[*EmploymentResult]
	poverty                memo[*PovertyResult]
	validation, checkValid memo[*ValidationResult]
	sweep                  memo[*PrivacySweepResult]
	table1                 memo[[]voter.Table1Row]
	table2                 memo[[]Table2Row]
	objectives             memo[*ObjectiveComparisonResult]
	groups                 memo[*GroupPhotoResult]
	lookalike              memo[*LookalikeResult]
}

// memo runs one step of the evaluation once and keeps what it returned.
type memo[T any] struct {
	done bool
	val  T
	err  error
}

func (m *memo[T]) get(run func() (T, error)) (T, error) {
	if !m.done {
		m.val, m.err = run()
		m.done = true
	}
	return m.val, m.err
}

func (e *Evaluation) logf(format string, args ...any) {
	if e.Out != nil {
		fmt.Fprintf(e.Out, format, args...)
	}
}

// step memoises one experiment: it runs the steps whose history this one
// stands on (before), prints its progress line if it has one, and hands run
// the evaluation's lab.
func step[T any](e *Evaluation, m *memo[T], note string, run func(*Lab) (T, error), before ...func() error) (T, error) {
	return m.get(func() (zero T, err error) {
		for _, b := range before {
			if err := b(); err != nil {
				return zero, err
			}
		}
		lab, err := e.Lab()
		if err != nil {
			return zero, err
		}
		if note != "" {
			e.logf("%s\n", note)
		}
		return run(lab)
	})
}

// after adapts a step to another's before list.
func after[T any](f func() (T, error)) func() error {
	return func() error { _, err := f(); return err }
}

// Lab returns the evaluation's world, building it on first use.
func (e *Evaluation) Lab() (*Lab, error) {
	return e.lab.get(func() (*Lab, error) {
		e.logf("building simulated world (scale=%s, seed=%d)...\n", e.Scale, e.Seed)
		lab, err := NewLab(LabConfig{Seed: e.Seed, Scale: e.Scale})
		if err != nil {
			return nil, err
		}
		if e.Err != nil {
			fmt.Fprintf(e.Err, "marketing API listening at %s\n", lab.URL())
		}
		e.logf("\n")
		return lab, nil
	})
}

// Close shuts the lab down if one was built.
func (e *Evaluation) Close() error { return e.lab.val.Close() }

// Stock is Campaign 1 (§5.2): the stock catalog, all ages.
func (e *Evaluation) Stock() (*StockResult, error) {
	return step(e, &e.stock, "running Campaign 1 (100 stock images × 2 audiences, all ages)...",
		func(l *Lab) (*StockResult, error) {
			return l.RunStockExperiment(StockExperimentOptions{Seed: e.Seed + seedStock})
		})
}

// StockCapped is Campaign 2 (§5.3): the same catalog, audience aged ≤ 45.
func (e *Evaluation) StockCapped() (*StockResult, error) {
	return step(e, &e.stockCapped, "running Campaign 2 (stock images, audience age ≤ 45)...",
		func(l *Lab) (*StockResult, error) {
			return l.RunStockExperiment(StockExperimentOptions{Seed: e.Seed + seedStockCapped, AgeMax: 45, BudgetCents: 350})
		})
}

// Synthetic is Campaign 3 (§5.5); its pipeline is the evaluation's only one.
func (e *Evaluation) Synthetic() (*SyntheticResult, error) {
	return step(e, &e.synthetic, "running Campaign 3 (StyleGAN-style synthetic faces, 5 people × 20 variants)...",
		func(l *Lab) (*SyntheticResult, error) {
			return l.RunSyntheticExperiment(SyntheticExperimentOptions{
				Seed: e.Seed + seedSynthetic, DiscoverySamples: scalePresets[e.Scale].discoverySamples,
			})
		})
}

// Figure1 is the lumber-job pair, composited from Campaign 3's faces.
func (e *Evaluation) Figure1() (*Figure1Result, error) {
	return step(e, &e.figure1, "", func(l *Lab) (*Figure1Result, error) {
		return l.RunFigure1(e.synthetic.val.Pipeline, e.Seed+seedFigure1)
	}, after(e.Synthetic))
}

// Employment is Campaign 4 (§6), composited from Campaign 3's faces.
func (e *Evaluation) Employment() (*EmploymentResult, error) {
	return step(e, &e.employment, "running Campaign 4 (employment ads: 11 jobs × 4 implied identities)...",
		func(l *Lab) (*EmploymentResult, error) {
			return l.RunEmploymentExperiment(EmploymentExperimentOptions{
				Seed: e.Seed + seedEmployment, Pipeline: e.synthetic.val.Pipeline,
			})
		}, after(e.Synthetic))
}

// Poverty is Appendix A. Its hostile review draws from the account's review
// stream, which every ad created before it advanced: the five ad sets that
// precede it in the paper's order run first.
func (e *Evaluation) Poverty() (*PovertyResult, error) {
	return step(e, &e.poverty, "running Appendix A (poverty-matched audiences, hostile ad review)...",
		func(l *Lab) (*PovertyResult, error) {
			return l.RunPovertyExperiment(PovertyExperimentOptions{Seed: e.Seed + seedPoverty})
		}, after(e.Stock), after(e.StockCapped), after(e.Synthetic), after(e.Figure1), after(e.Employment))
}

// Validation is the Figure 2 methodology check (E11) the report shows.
func (e *Evaluation) Validation() (*ValidationResult, error) {
	return step(e, &e.validation, "validating the race-inference methodology against the simulator oracle...",
		func(l *Lab) (*ValidationResult, error) { return l.ValidateRaceInference(2, e.Seed+seedValidation) })
}

// Checks evaluates the shape checks over Campaigns 1-4 and Appendix A —
// which runs the four before itself — and a validation run of its own (S16).
func (e *Evaluation) Checks() ([]Check, error) {
	val, err := step(e, &e.checkValid, "", func(l *Lab) (*ValidationResult, error) {
		return l.ValidateRaceInference(2, e.Seed+seedCheckValidation)
	}, after(e.Poverty))
	if err != nil {
		return nil, err
	}
	return ShapeChecks(e.stock.val, e.stockCapped.val, e.synthetic.val, e.employment.val, e.poverty.val, val), nil
}

// Table1 is the balanced sample behind every audience (§3.2).
func (e *Evaluation) Table1() ([]voter.Table1Row, error) {
	return step(e, &e.table1, "", func(l *Lab) ([]voter.Table1Row, error) {
		return Table1(l.BalancedSamples(e.Scale.PerCell(), e.Seed+seedTable1)), nil
	})
}

// Table2 is the ledger of Campaigns 1-4.
func (e *Evaluation) Table2() ([]Table2Row, error) {
	return step(e, &e.table2, "", func(*Lab) ([]Table2Row, error) {
		return []Table2Row{
			SummarizeCampaign(e.stock.val.Run, "Stock", "§5.2"),
			SummarizeCampaign(e.stockCapped.val.Run, "Stock", "§5.3"),
			SummarizeCampaign(e.synthetic.val.Run, "Synthetic", "§5.5"),
			SummarizeCampaign(e.employment.val.Run, "Synthetic+job background", "§6"),
		}, nil
	}, after(e.Stock), after(e.StockCapped), after(e.Synthetic), after(e.Employment))
}

// BootstrapSeed seeds Figure 3A's confidence intervals.
func (e *Evaluation) BootstrapSeed() int64 { return e.Seed + seedBootstrap }

// Objectives is E13.
func (e *Evaluation) Objectives() (*ObjectiveComparisonResult, error) {
	return step(e, &e.objectives, "running E13: the same ads under Awareness / Traffic / Conversions...",
		func(l *Lab) (*ObjectiveComparisonResult, error) {
			return l.RunObjectiveComparison(e.Seed + seedObjectives)
		})
}

// GroupPhotos is E14.
func (e *Evaluation) GroupPhotos() (*GroupPhotoResult, error) {
	return step(e, &e.groups, "running E14: single-person vs diverse group-photo ads...",
		func(l *Lab) (*GroupPhotoResult, error) { return l.RunGroupPhotoExperiment(e.Seed + seedGroups) })
}

// Lookalike is E15.
func (e *Evaluation) Lookalike() (*LookalikeResult, error) {
	return step(e, &e.lookalike, "running E15: lookalike expansion from a Black-voter seed...",
		func(l *Lab) (*LookalikeResult, error) {
			return l.RunLookalikeExperiment(e.Seed + seedLookalike)
		})
}

// PrivacySweep re-reads Campaign 1 at each privacy level.
func (e *Evaluation) PrivacySweep() (*PrivacySweepResult, error) {
	return step(e, &e.sweep, "running the skew-detectability sweep: re-reading Campaign 1 at each privacy level...",
		func(l *Lab) (*PrivacySweepResult, error) {
			return RunPrivacySweep(l, e.stock.val.Run, e.Seed+seedPrivacy)
		}, after(e.Stock))
}

// sideLab builds a world of its own at Seed+offset — one preset below full,
// so a full evaluation can afford several — hands it to read with the seed
// to read it at, and closes it.
func sideLab[T any](e *Evaluation, offset int64, cfg LabConfig, read func(l *Lab, seed int64) (T, error)) (T, error) {
	cfg.Seed, cfg.Scale = e.Seed+offset, e.Scale.reduced()
	lab, err := NewLab(cfg)
	if err != nil {
		var zero T
		return zero, err
	}
	defer lab.Close()
	return read(lab, cfg.Seed+1)
}

// AblationReading is what one ablation lab was read with: a stock campaign
// or the E11 validation.
type AblationReading struct {
	Stock      *StockResult
	Validation *ValidationResult
}

// Ablate reads one lab of ablation group A<group>: cfg carries the override;
// the labs of a group share a world seed, so only the override differs.
func (e *Evaluation) Ablate(group int, cfg LabConfig, read func(l *Lab, seed int64) (AblationReading, error)) (AblationReading, error) {
	return sideLab(e, seedSideLabs+10*int64(group), cfg, read)
}

// Feedback is E16. Retraining changes the platform's model, so it runs on a
// side lab and the evaluation's own keeps the pristine one.
func (e *Evaluation) Feedback() (*FeedbackLoopResult, error) {
	e.logf("running E16: retraining the delivery model on its own served impressions...\n")
	return sideLab(e, seedFeedback, LabConfig{}, func(l *Lab, seed int64) (*FeedbackLoopResult, error) {
		return l.RunFeedbackLoop(seed)
	})
}

// CampaignFile is one delivered campaign's per-ad measurements, for export.
type CampaignFile struct {
	Name       string
	Deliveries []Delivery
}

// Delivered lists the campaigns that have run so far, in the paper's order,
// and the privacy sweep if it has (else nil): what is worth a file.
func (e *Evaluation) Delivered() (campaigns []CampaignFile, sweep *PrivacySweepResult) {
	if r := e.stock.val; r != nil {
		campaigns = append(campaigns, CampaignFile{"campaign1_stock", r.Deliveries})
	}
	if r := e.stockCapped.val; r != nil {
		campaigns = append(campaigns, CampaignFile{"campaign2_stock_capped", r.Deliveries})
	}
	if r := e.synthetic.val; r != nil {
		campaigns = append(campaigns, CampaignFile{"campaign3_synthetic", r.Deliveries})
	}
	if r := e.employment.val; r != nil {
		campaigns = append(campaigns, CampaignFile{"campaign4_employment", r.Deliveries})
	}
	if r := e.poverty.val; r != nil {
		campaigns = append(campaigns, CampaignFile{"appendixA_poverty", r.Deliveries})
	}
	return campaigns, e.sweep.val
}
