// External audit: the whole measurement pipeline driven by hand, the way an
// outside auditor would run it against a deployed platform server —
// without any of the core package's conveniences:
//
//  1. write both states' voter extracts to disk and parse them back with
//     the FL and NC format readers (the files a real audit downloads from
//     the states);
//  2. stratify a balanced sample and build the two race-split Custom
//     Audiences of Figure 2, uploading PII hashes over HTTP;
//  3. create two ads differing only in the pictured person's race, deliver
//     them for a day, and read the insights breakdowns;
//  4. compute the region-split race inference from the raw API responses.
//
// Run with:
//
//	go run ./examples/external_audit
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// --- the platform side: world + server (in production this is the
	// standalone `adplatform` binary) ---
	fmt.Println("Platform side: generating registries and training the delivery model...")
	flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 11)
	flCfg.NumVoters = 20000
	ncCfg := voter.DefaultGeneratorConfig(demo.StateNC, 12)
	ncCfg.NumVoters = 20000
	fl, err := voter.Generate(flCfg)
	if err != nil {
		return err
	}
	nc, err := voter.Generate(ncCfg)
	if err != nil {
		return err
	}
	pop, err := population.Build(population.Config{Seed: 13}, fl, nc)
	if err != nil {
		return err
	}
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		return err
	}
	cfg := platform.DefaultConfig(14)
	cfg.Training.LogRows = 20000
	plat, err := platform.New(cfg, pop, behave)
	if err != nil {
		return err
	}
	srv, err := marketing.NewServer(plat)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("Marketing API live at", ts.URL)

	// --- the auditor side: everything below only touches voter files and
	// the HTTP API ---
	dir, err := os.MkdirTemp("", "voter-extracts")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	flRecords, err := extract(filepath.Join(dir, "fl.txt"), fl.Records, voter.WriteFL, voter.ParseFL)
	if err != nil {
		return err
	}
	ncRecords, err := extract(filepath.Join(dir, "ncvoter.txt"), nc.Records, voter.WriteNC, voter.ParseNC)
	if err != nil {
		return err
	}
	fmt.Printf("Auditor side: parsed %d FL and %d NC voter records from disk\n", len(flRecords), len(ncRecords))

	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(15))
	flSample := voter.StratifiedSample(flRecords, 200, rng)
	ncSample := voter.StratifiedSample(ncRecords, 200, rng)
	hashes := func(records []voter.Record, race demo.Race) []string {
		var out []string
		for i := range records {
			r := &records[i]
			if r.Race == race {
				out = append(out, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
			}
		}
		return out
	}
	primary, err := client.CreateAudience(ctx, "FLwhite+NCblack",
		append(hashes(flSample, demo.RaceWhite), hashes(ncSample, demo.RaceBlack)...))
	if err != nil {
		return err
	}
	reversed, err := client.CreateAudience(ctx, "FLblack+NCwhite",
		append(hashes(flSample, demo.RaceBlack), hashes(ncSample, demo.RaceWhite)...))
	if err != nil {
		return err
	}
	fmt.Printf("Uploaded split audiences: %d and %d matched accounts\n", primary.MatchedSize, reversed.MatchedSize)

	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "external audit", Objective: "TRAFFIC"})
	if err != nil {
		return err
	}
	imgW := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgB := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	imgW.ApplyPresentationBias()
	imgB.ApplyPresentationBias()
	var adIDs []string
	type copyRef struct {
		id         string
		blackState string // which region counts as Black delivery
	}
	copies := map[string][]copyRef{}
	for _, spec := range []struct {
		key string
		img image.Features
	}{{"white-image", imgW}, {"black-image", imgB}} {
		for _, aud := range []struct {
			id         string
			blackState string
		}{{primary.ID, "NC"}, {reversed.ID, "FL"}} {
			ad, err := client.CreateAd(ctx, marketing.CreateAdRequest{
				CampaignID: cmp.ID,
				Creative: marketing.WireCreative{
					Image:    marketing.WireImageFrom(spec.img),
					Headline: "Considering a career in project management?",
					LinkURL:  "https://example.edu/guide",
				},
				Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{aud.id}},
				DailyBudgetCents: 400,
			})
			if err != nil {
				return err
			}
			adIDs = append(adIDs, ad.ID)
			copies[spec.key] = append(copies[spec.key], copyRef{id: ad.ID, blackState: aud.blackState})
		}
	}
	fmt.Println("Launching all copies simultaneously for one simulated day...")
	if err := client.Deliver(ctx, adIDs, 16); err != nil {
		return err
	}

	for _, key := range []string{"white-image", "black-image"} {
		var black, countable, total int
		for _, ref := range copies[key] {
			ins, err := client.Insights(ctx, ref.id)
			if err != nil {
				return err
			}
			total += ins.Impressions
			for _, row := range ins.Breakdown {
				switch row.Region {
				case "other":
					// Out-of-state impressions are discarded (§3.3).
				case ref.blackState:
					black += row.Impressions
					countable += row.Impressions
				default:
					countable += row.Impressions
				}
			}
		}
		fmt.Printf("  %-12s %5d impressions, %5.1f%% inferred Black delivery\n",
			key, total, 100*float64(black)/float64(countable))
	}
	fmt.Println("Identical targeting, budget, and timing — the difference is the algorithm.")
	return nil
}

// extract writes records to path in one state's extract layout and parses
// the file back, as an auditor reads the file the state publishes.
func extract(path string, records []voter.Record, write func(io.Writer, []voter.Record) error,
	parse func(io.Reader) ([]voter.Record, error)) ([]voter.Record, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := write(f, records); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	return parse(rf)
}
