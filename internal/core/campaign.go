package core

import (
	"context"
	"fmt"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
)

// AdSpec is one ad in a controlled campaign: an image plus its implied
// identity annotation. Everything else about the ad is held constant across
// the campaign (§3.2).
type AdSpec struct {
	Key     string       // stable identifier, e.g. "stock-bm-adult-3"
	Profile demo.Profile // implied identity of the pictured person
	Image   image.Features
}

// CampaignConfig configures one controlled campaign.
type CampaignConfig struct {
	Name        string
	Objective   string // marketing-API objective; default TRAFFIC
	Special     string // special ad category; default NONE
	BudgetCents int    // per-ad daily budget; the paper used $2.00-$3.50
	AgeMax      int    // 0 = no age limit; Campaign 2/3 used 45/44
	AccountAge  int    // ad-account creation year (Table 2 note)
	Seed        int64  // delivery seed
	Headline    string
	Body        string
	LinkURL     string
}

func (c *CampaignConfig) setDefaults() {
	if c.Objective == "" {
		c.Objective = "TRAFFIC"
	}
	if c.Special == "" {
		c.Special = "NONE"
	}
	if c.BudgetCents == 0 {
		c.BudgetCents = 200
	}
	if c.AccountAge == 0 {
		c.AccountAge = 2019
	}
	if c.Headline == "" {
		c.Headline = "Considering a career in project management?"
	}
	if c.LinkURL == "" {
		c.LinkURL = "https://example.edu/project-management-career-guide"
	}
}

// AdRun is the outcome for one AdSpec: the two copies (primary and reversed
// audiences) with their review status and, when delivered, insights.
type AdRun struct {
	Spec           AdSpec
	PrimaryID      string
	ReversedID     string
	PrimaryStatus  string
	ReversedStatus string
	Primary        *marketing.InsightsResponse // nil if rejected
	Reversed       *marketing.InsightsResponse // nil if rejected
}

// Rejected reports whether either copy failed review — the Appendix A
// analysis drops such ads from both campaigns.
func (r *AdRun) Rejected() bool {
	return r.PrimaryStatus == "REJECTED" || r.ReversedStatus == "REJECTED"
}

// CampaignRun is a completed controlled campaign.
type CampaignRun struct {
	Config CampaignConfig
	Ads    []AdRun
}

// TotalImpressions sums impressions over all delivered copies.
func (c *CampaignRun) TotalImpressions() int {
	var n int
	for i := range c.Ads {
		if c.Ads[i].Primary != nil {
			n += c.Ads[i].Primary.Impressions
		}
		if c.Ads[i].Reversed != nil {
			n += c.Ads[i].Reversed.Impressions
		}
	}
	return n
}

// TotalReach sums reach over all delivered copies (an upper bound on unique
// users, as the platform reports reach per ad).
func (c *CampaignRun) TotalReach() int {
	var n int
	for i := range c.Ads {
		if c.Ads[i].Primary != nil {
			n += c.Ads[i].Primary.Reach
		}
		if c.Ads[i].Reversed != nil {
			n += c.Ads[i].Reversed.Reach
		}
	}
	return n
}

// TotalSpendCents sums spend over all delivered copies.
func (c *CampaignRun) TotalSpendCents() float64 {
	var s float64
	for i := range c.Ads {
		if c.Ads[i].Primary != nil {
			s += c.Ads[i].Primary.SpendCents
		}
		if c.Ads[i].Reversed != nil {
			s += c.Ads[i].Reversed.SpendCents
		}
	}
	return s
}

// AdCount returns the number of platform ads created (two per spec).
func (c *CampaignRun) AdCount() int { return 2 * len(c.Ads) }

// RunPairedCampaign executes the full §3.2 protocol: for every spec it
// creates two ads identical except for the target audience (primary and
// reversed race-split copies), launches all copies at the same time with
// the same budget, lets them deliver for one simulated day, and collects
// insights. Rejected copies are carried through with nil insights.
func (l *Lab) RunPairedCampaign(cfg CampaignConfig, specs []AdSpec, auds SplitAudiences) (*CampaignRun, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: campaign %q has no ads", cfg.Name)
	}
	cfg.setDefaults()
	cmp, err := l.Client.CreateCampaign(context.Background(), marketing.CreateCampaignRequest{
		Name:              cfg.Name,
		Objective:         cfg.Objective,
		SpecialAdCategory: cfg.Special,
		AccountAge:        cfg.AccountAge,
	})
	if err != nil {
		return nil, fmt.Errorf("core: creating campaign %q: %w", cfg.Name, err)
	}

	run := &CampaignRun{Config: cfg, Ads: make([]AdRun, len(specs))}
	var activeIDs []string
	for i, spec := range specs {
		run.Ads[i].Spec = spec
		for _, side := range []struct {
			audienceID string
			id         *string
			status     *string
		}{
			{auds.PrimaryID, &run.Ads[i].PrimaryID, &run.Ads[i].PrimaryStatus},
			{auds.ReversedID, &run.Ads[i].ReversedID, &run.Ads[i].ReversedStatus},
		} {
			ad, err := l.Client.CreateAd(context.Background(), marketing.CreateAdRequest{
				CampaignID: cmp.ID,
				Creative: marketing.WireCreative{
					Image:    marketing.WireImageFrom(spec.Image),
					Headline: cfg.Headline,
					Body:     cfg.Body,
					LinkURL:  cfg.LinkURL,
				},
				Targeting: marketing.WireTargeting{
					CustomAudienceIDs: []string{side.audienceID},
					AgeMax:            cfg.AgeMax,
				},
				DailyBudgetCents: cfg.BudgetCents,
			})
			if err != nil {
				return nil, fmt.Errorf("core: creating ad %s: %w", spec.Key, err)
			}
			*side.id = ad.ID
			*side.status = ad.Status
			if ad.Status == "ACTIVE" {
				activeIDs = append(activeIDs, ad.ID)
			}
		}
	}
	if len(activeIDs) == 0 {
		return nil, fmt.Errorf("core: campaign %q: every ad was rejected", cfg.Name)
	}
	if err := l.Client.Deliver(context.Background(), activeIDs, cfg.Seed); err != nil {
		return nil, fmt.Errorf("core: delivering campaign %q: %w", cfg.Name, err)
	}
	for i := range run.Ads {
		ar := &run.Ads[i]
		if ar.PrimaryStatus == "ACTIVE" {
			if ar.Primary, err = l.Client.Insights(context.Background(), ar.PrimaryID); err != nil {
				return nil, err
			}
			ar.PrimaryStatus = "COMPLETED"
		}
		if ar.ReversedStatus == "ACTIVE" {
			if ar.Reversed, err = l.Client.Insights(context.Background(), ar.ReversedID); err != nil {
				return nil, err
			}
			ar.ReversedStatus = "COMPLETED"
		}
	}
	return run, nil
}

// runSplit is the step every controlled experiment shares (§3.2-§3.3): draw
// the balanced race-split audiences audName with audSeed, run the specs
// against both, and measure each ad from its two copies.
func (l *Lab) runSplit(cfg CampaignConfig, specs []AdSpec, audName string, audSeed int64) (*CampaignRun, []Delivery, error) {
	auds, err := l.DefaultSplitAudiences(audName, audSeed)
	if err != nil {
		return nil, nil, err
	}
	return l.runMeasured(cfg, specs, auds)
}

// runMeasured is runSplit over audiences the caller built (Appendix A
// matches its samples on poverty first).
func (l *Lab) runMeasured(cfg CampaignConfig, specs []AdSpec, auds SplitAudiences) (*CampaignRun, []Delivery, error) {
	run, err := l.RunPairedCampaign(cfg, specs, auds)
	if err != nil {
		return nil, nil, err
	}
	ds, err := MeasureCampaign(run)
	return run, ds, err
}
