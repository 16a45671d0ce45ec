// Package loadgen drives concurrent advertiser traffic against the marketing
// API. Real audit studies hammer the platform from many parallel campaigns
// (the paper ran 688 ads across parallel campaigns; Ali et al.'s
// "Discrimination through optimization" drove the Marketing API at scale
// under the same pacing constraints), so the driver replays that shape as
// virtual-advertiser scenarios: upload a Custom Audience, create a campaign,
// create N ads, deliver, poll insights. A fixed-size worker pool runs the
// scenarios back to back.
//
// Everything the driver decides (audience membership, ad creatives, budgets,
// delivery seeds) derives from Config.Seed and the scenario index, so a run
// is reproducible: the same seed issues the identical request sequence. The
// driver measures nothing; serving latency and throughput are bench/'s.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
)

// insightsPolls is how many insights reads follow each delivered ad,
// alternating the full breakdown with a gender-only one — the polling
// pattern of the audit's data collection.
const insightsPolls = 2

// Config parameterizes a load run.
type Config struct {
	// Seed drives every workload decision. Same seed → same request
	// sequence.
	Seed int64
	// Workers is the worker-pool size.
	Workers int
	// Scenarios is how many virtual advertisers to run.
	Scenarios int
	// AdsPerCampaign is the number of ads each advertiser creates.
	AdsPerCampaign int
	// AudienceSize is the number of PII hashes per audience upload.
	AudienceSize int
	// Hashes is the PII hash pool audiences are drawn from. Required: the
	// platform rejects targeting that matches no users.
	Hashes []string
	// DeliveryWorkers is passed through on every deliver call: the
	// platform-side shard count for the parallel delivery engine. 0 is one
	// shard on a single server and the fleet width behind a router; 1 forces
	// the sequential oracle.
	DeliveryWorkers int
}

// Runner executes load scenarios against one marketing API client.
type Runner struct {
	cfg    Config
	client *marketing.Client
}

// New validates the configuration and builds a runner. A worker, scenario,
// ad or audience count below one is refused, never replaced by a default, and
// so is a negative DeliveryWorkers.
func New(cfg Config, client *marketing.Client) (*Runner, error) {
	if client == nil {
		return nil, fmt.Errorf("loadgen: nil client")
	}
	if len(cfg.Hashes) == 0 {
		return nil, fmt.Errorf("loadgen: empty Hashes, the PII hash pool")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Workers", cfg.Workers}, {"Scenarios", cfg.Scenarios}, {"AdsPerCampaign", cfg.AdsPerCampaign}, {"AudienceSize", cfg.AudienceSize}} {
		if f.v <= 0 {
			return nil, fmt.Errorf("loadgen: %s must be positive, got %d", f.name, f.v)
		}
	}
	if cfg.DeliveryWorkers < 0 {
		return nil, fmt.Errorf("loadgen: DeliveryWorkers must not be negative, got %d", cfg.DeliveryWorkers)
	}
	return &Runner{cfg: cfg, client: client}, nil
}

// profileFor draws a creative demographic deterministically from the
// scenario RNG, covering the audit's image space.
func profileFor(rng *rand.Rand) demo.Profile {
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	ages := demo.AllImpliedAges()
	return demo.Profile{
		Gender: genders[rng.Intn(len(genders))],
		Race:   races[rng.Intn(len(races))],
		Age:    ages[rng.Intn(len(ages))],
	}
}

// scenario runs one virtual advertiser end to end. Every decision comes
// from the scenario's own RNG (seeded from Config.Seed and the scenario
// index), so the workload is independent of worker interleaving.
func (r *Runner) scenario(ctx context.Context, idx int) error {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(idx)*7919))
	hashes := make([]string, 0, r.cfg.AudienceSize)
	start := rng.Intn(len(r.cfg.Hashes))
	for i := 0; i < r.cfg.AudienceSize; i++ {
		hashes = append(hashes, r.cfg.Hashes[(start+i)%len(r.cfg.Hashes)])
	}

	caResp, err := r.client.CreateAudience(ctx, fmt.Sprintf("loadgen-aud-%d", idx), hashes)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	cmpResp, err := r.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{
		Name:      fmt.Sprintf("loadgen-cmp-%d", idx),
		Objective: "TRAFFIC",
	})
	if err != nil {
		return err
	}

	adIDs := make([]string, 0, r.cfg.AdsPerCampaign)
	for a := 0; a < r.cfg.AdsPerCampaign; a++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		img := image.FromProfile(profileFor(rng))
		budget := 100 + rng.Intn(200)
		adResp, err := r.client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID: cmpResp.ID,
			Creative: marketing.WireCreative{
				Image:    marketing.WireImageFrom(img),
				Headline: "loadgen",
				LinkURL:  "https://example.test/offer",
			},
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{caResp.ID}},
			DailyBudgetCents: budget,
		})
		if err != nil {
			return err
		}
		if adResp.Status == "ACTIVE" {
			adIDs = append(adIDs, adResp.ID)
		}
	}
	if len(adIDs) == 0 {
		// All ads rejected by review: a complete (if unlucky) advertiser
		// session, not a harness failure.
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	if err := r.client.DeliverWorkers(ctx, adIDs, rng.Int63(), r.cfg.DeliveryWorkers); err != nil {
		return err
	}

	for p := 0; p < insightsPolls; p++ {
		for _, id := range adIDs {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var err error
			if p%2 == 1 {
				_, err = r.client.InsightsBreakdown(ctx, id, "gender")
			} else {
				_, err = r.client.Insights(ctx, id)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the configured scenarios on the worker pool and returns how
// many completed and how many failed; a scenario fails at its first request
// the client could not complete. Cancelling the context stops new work;
// in-flight API calls finish (the marketing API has no streaming endpoints,
// so calls are short).
func (r *Runner) Run(ctx context.Context) (completed, failed int, err error) {
	var done, lost atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if r.scenario(ctx, idx) != nil {
					lost.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	for i := 0; i < r.cfg.Scenarios; i++ {
		if ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return int(done.Load()), int(lost.Load()), ctx.Err()
}
