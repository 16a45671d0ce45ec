package core

import (
	"context"
	"fmt"

	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// This file implements the extension experiments E13-E15 — questions the
// paper raises (objectives in §2.1, group photos in §7's future work,
// lookalike/special audiences via ref [58]) but does not run.

// ObjectiveGap is the measured race skew for one delivery objective.
type ObjectiveGap struct {
	Objective string
	// RaceGap is FracBlack(Black image) - FracBlack(white image) for an
	// otherwise-identical ad pair.
	RaceGap float64
	// Impressions is the pair's total delivery, for context (Awareness
	// reaches more users per dollar).
	Impressions int
}

// ObjectiveComparisonResult is the E13 outcome.
type ObjectiveComparisonResult struct {
	Gaps []ObjectiveGap // ordered: AWARENESS, TRAFFIC, CONVERSIONS
}

// RunObjectiveComparison (E13) runs the same white/Black adult-image ad pair
// under each delivery objective. The paper ran everything under Traffic
// (§3.2); this measures how the skew depends on how hard the objective
// optimizes: Awareness ignores the action-rate model entirely, so its skew
// should collapse, while Conversions concentrates delivery hardest.
func (l *Lab) RunObjectiveComparison(seed int64) (*ObjectiveComparisonResult, error) {
	// One balanced 20-image stock set (one photo per demographic
	// combination) per objective, for statistical power.
	specs, err := StockSpecs(1, seed)
	if err != nil {
		return nil, err
	}
	res := &ObjectiveComparisonResult{}
	for i, objective := range []string{"AWARENESS", "TRAFFIC", "CONVERSIONS"} {
		_, ds, err := l.runSplit(CampaignConfig{
			Name:        "E13 " + objective,
			Objective:   objective,
			BudgetCents: 300,
			Seed:        seed + 10 + int64(i),
		}, specs, "objective-"+objective, seed+int64(i))
		if err != nil {
			return nil, err
		}
		gap := ObjectiveGap{Objective: objective}
		blackMean, _ := GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Race == demo.RaceBlack },
			func(d *Delivery) float64 { return d.FracBlack })
		whiteMean, _ := GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Race == demo.RaceWhite },
			func(d *Delivery) float64 { return d.FracBlack })
		gap.RaceGap = blackMean - whiteMean
		for j := range ds {
			gap.Impressions += ds[j].Impressions
		}
		res.Gaps = append(res.Gaps, gap)
	}
	return res, nil
}

// GroupPhotoResult is the E14 outcome: delivery of single-person images vs
// a two-person diverse group photo.
type GroupPhotoResult struct {
	WhiteOnly   Delivery // single white adult man
	BlackOnly   Delivery // single Black adult man
	DiversePair Delivery // both people in one image
}

// Spread returns how far each ad's Black-delivery fraction sits from the
// diverse pair's — the quantity E14 expects to be one-sided (the group photo
// lands between the single-person extremes).
func (r *GroupPhotoResult) Spread() (belowPair, abovePair float64) {
	return r.DiversePair.FracBlack - r.WhiteOnly.FracBlack,
		r.BlackOnly.FracBlack - r.DiversePair.FracBlack
}

// RunGroupPhotoExperiment (E14) tests the paper's future-work case: an ad
// image containing a diverse group of faces. Expectation under the
// averaging-perception model: the group photo's delivery sits between the
// two single-person extremes.
func (l *Lab) RunGroupPhotoExperiment(seed int64) (*GroupPhotoResult, error) {
	rng := rand.New(rand.NewSource(seed))
	white := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	black := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	white.ApplyPresentationBias()
	black.ApplyPresentationBias()
	pair, err := image.GroupPhoto([]image.Features{white, black}, rng)
	if err != nil {
		return nil, err
	}
	specs := []AdSpec{
		{Key: "single-white", Profile: white.ImpliedProfile(), Image: white},
		{Key: "single-black", Profile: black.ImpliedProfile(), Image: black},
		{Key: "diverse-pair", Profile: pair.ImpliedProfile(), Image: pair},
	}
	_, ds, err := l.runSplit(CampaignConfig{
		Name:        "E14 group photos",
		BudgetCents: 800,
		Seed:        seed + 2,
	}, specs, "group-photo", seed+1)
	if err != nil {
		return nil, err
	}
	res := &GroupPhotoResult{}
	for i := range ds {
		switch ds[i].Key {
		case "single-white":
			res.WhiteOnly = ds[i]
		case "single-black":
			res.BlackOnly = ds[i]
		case "diverse-pair":
			res.DiversePair = ds[i]
		}
	}
	if res.WhiteOnly.Impressions == 0 || res.BlackOnly.Impressions == 0 || res.DiversePair.Impressions == 0 {
		return nil, fmt.Errorf("core: group-photo experiment produced an empty delivery")
	}
	return res, nil
}

// LookalikeResult is the E15 outcome.
type LookalikeResult struct {
	SeedSize       int
	SeedFracBlack  float64
	Expansion      platform.AudienceComposition
	BaselineRandom platform.AudienceComposition // random same-size audience
}

// RunLookalikeExperiment (E15) reproduces the setting of "Algorithms that
// Don't See Color" (the paper's ref [58]): seed a lookalike audience with
// Black voters only, let the platform expand it using exclusively
// non-demographic account features, and compare the expansion's racial
// makeup with a random audience of the same size. Residential segregation
// makes ZIP a race proxy, so the "color-blind" expansion reproduces the
// seed's makeup — composition is read through the simulator oracle, as the
// reference work read it through voter-list ground truth.
func (l *Lab) RunLookalikeExperiment(seedCount, expandCount int, seed int64) (*LookalikeResult, error) {
	if seedCount <= 0 || expandCount <= 0 {
		return nil, fmt.Errorf("core: seed and expansion sizes must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	// Seed list: Black voters from both states.
	var hashes []string
	take := func(records []voter.Record) {
		var black []voter.Record
		for i := range records {
			if records[i].Race == demo.RaceBlack {
				black = append(black, records[i])
			}
		}
		for _, j := range rng.Perm(len(black)) {
			if len(hashes) >= seedCount {
				return
			}
			r := &black[j]
			hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
	}
	take(l.FL.Records)
	take(l.NC.Records)
	seedResp, err := l.Client.CreateAudience(context.Background(), "lookalike-seed", hashes)
	if err != nil {
		return nil, err
	}
	res := &LookalikeResult{SeedSize: seedResp.MatchedSize, SeedFracBlack: 1}

	// The expansion and composition reads go through the platform handle:
	// lookalike construction is a platform-side product feature, and the
	// composition is an oracle read (not advertiser-visible).
	expansion, err := l.Platform.CreateLookalikeAudience("lookalike-expansion", seedResp.ID, expandCount)
	if err != nil {
		return nil, err
	}
	if res.Expansion, err = l.Platform.CompositionOf(expansion.ID); err != nil {
		return nil, err
	}

	// Random baseline of the same size, from a mixed voter sample.
	var baseHashes []string
	all := append(append([]voter.Record(nil), l.FL.Records...), l.NC.Records...)
	for _, j := range rng.Perm(len(all)) {
		if len(baseHashes) >= expandCount*2 {
			break
		}
		r := &all[j]
		baseHashes = append(baseHashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	baseResp, err := l.Client.CreateAudience(context.Background(), "lookalike-baseline", baseHashes)
	if err != nil {
		return nil, err
	}
	if res.BaselineRandom, err = l.Platform.CompositionOf(baseResp.ID); err != nil {
		return nil, err
	}
	return res, nil
}

// Lift returns how much more Black the expansion is than the random
// baseline, in percentage points.
func (r *LookalikeResult) Lift() float64 {
	return 100 * (r.Expansion.FracBlack - r.BaselineRandom.FracBlack)
}

// FeedbackRound is one round of the E16 feedback-loop experiment.
type FeedbackRound struct {
	Round     int
	BlackCoef float64 // Table 4 race coefficient measured this round
	ServedLog int     // impressions accumulated before retraining
}

// FeedbackLoopResult is the E16 outcome.
type FeedbackLoopResult struct {
	Rounds []FeedbackRound
}

// RunFeedbackLoop (E16) measures how delivery skew evolves when the platform
// periodically retrains its action-rate model on the impressions it served —
// the engagement feedback loop §2.2 and §8 discuss. Each round runs a small
// balanced stock campaign, records the Table 4 race coefficient, then has
// the platform retrain on a fresh background log plus the served buffer
// (which the previous model's choices selection-biased).
func (l *Lab) RunFeedbackLoop(rounds int, seed int64) (*FeedbackLoopResult, error) {
	if rounds < 1 || rounds > 20 {
		return nil, fmt.Errorf("core: feedback rounds %d outside [1, 20]", rounds)
	}
	res := &FeedbackLoopResult{}
	for r := 0; r < rounds; r++ {
		stock, err := l.RunStockExperiment(StockExperimentOptions{
			PerPerson: 2,
			Seed:      seed + int64(100*r),
		})
		if err != nil {
			return nil, fmt.Errorf("core: feedback round %d: %w", r, err)
		}
		coef, _ := stock.Table4.Black.Coefficient("Black")
		res.Rounds = append(res.Rounds, FeedbackRound{
			Round:     r,
			BlackCoef: coef,
			ServedLog: l.Platform.ServedLogSize(),
		})
		if r < rounds-1 {
			if err := l.Platform.Retrain(platform.TrainingConfig{Seed: seed + int64(r) + 7777}); err != nil {
				return nil, fmt.Errorf("core: retraining after round %d: %w", r, err)
			}
		}
	}
	return res, nil
}
