package platform

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// launchPair creates two ads differing only in the creative image and runs
// them for a day, returning their stats.
func launchPair(t *testing.T, p *Platform, caID string, imgA, imgB image.Features, budgetCents int) (*AdStats, *AdStats) {
	t.Helper()
	cmp, err := p.CreateCampaign("pair", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	targeting := Targeting{CustomAudienceIDs: []string{caID}}
	adA, err := p.CreateAd(cmp.ID, Creative{Image: imgA, Headline: "h", LinkURL: "https://example.com"}, targeting, budgetCents)
	if err != nil {
		t.Fatal(err)
	}
	adB, err := p.CreateAd(cmp.ID, Creative{Image: imgB, Headline: "h", LinkURL: "https://example.com"}, targeting, budgetCents)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunDay([]string{adA.ID, adB.ID}, 999); err != nil {
		t.Fatal(err)
	}
	sa, err := p.Insights(adA.ID)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := p.Insights(adB.ID)
	if err != nil {
		t.Fatal(err)
	}
	return sa, sb
}

// newRand returns a deterministic RNG for test helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// raceHashes returns PII hashes for up to count voters of the given race,
// sampled uniformly.
func raceHashes(records []voter.Record, race demo.Race, count int, rng *rand.Rand) []string {
	var idx []int
	for i := range records {
		if records[i].Race == race {
			idx = append(idx, i)
		}
	}
	if count > len(idx) {
		count = len(idx)
	}
	out := make([]string, 0, count)
	for _, j := range rng.Perm(len(idx))[:count] {
		r := &records[idx[j]]
		out = append(out, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return out
}

func statsInvariants(t *testing.T, s *AdStats, budgetCents int) {
	t.Helper()
	if s.Impressions <= 0 {
		t.Fatalf("ad %s: no impressions", s.AdID)
	}
	if s.Reach <= 0 || s.Reach > s.Impressions {
		t.Fatalf("ad %s: reach %d vs impressions %d", s.AdID, s.Reach, s.Impressions)
	}
	var sum int
	for _, n := range s.Breakdown {
		sum += n
	}
	if sum != s.Impressions {
		t.Fatalf("ad %s: breakdown sums to %d, impressions %d", s.AdID, sum, s.Impressions)
	}
	if s.Clicks < 0 || s.Clicks > s.Impressions {
		t.Fatalf("ad %s: clicks %d", s.AdID, s.Clicks)
	}
	// Pacing should spend most of the budget without overshooting much.
	if s.SpendCents > float64(budgetCents)*1.15 {
		t.Fatalf("ad %s: spent %.0f¢ of %d¢ budget", s.AdID, s.SpendCents, budgetCents)
	}
	if s.SpendCents < float64(budgetCents)*0.5 {
		t.Errorf("ad %s: only spent %.0f¢ of %d¢ budget (pacing too timid)", s.AdID, s.SpendCents, budgetCents)
	}
}

func TestRunDayBasicInvariants(t *testing.T) {
	p, f := newTestPlatform(t, 300)
	caID := uploadBalancedAudience(t, p, f, 150, 3)
	imgW := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgB := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sa, sb := launchPair(t, p, caID, imgW, imgB, 200)
	statsInvariants(t, sa, 200)
	statsInvariants(t, sb, 200)
	// Ads are completed after the run and cannot run again.
	adIDs := []string{sa.AdID, sb.AdID}
	if err := p.RunDay(adIDs, 1000); err == nil {
		t.Error("re-running completed ads: want error")
	}
}

func TestRunDayErrors(t *testing.T) {
	p, f := newTestPlatform(t, 301)
	if err := p.RunDay([]string{"ad-404"}, 1); err == nil {
		t.Error("unknown ad: want error")
	}
	if err := p.RunDay(nil, 1); err == nil {
		t.Error("no ads: want error")
	}
	if _, err := p.Insights("ad-404"); err == nil {
		t.Error("insights before delivery: want error")
	}
	// Day state is per run index, so one ad cannot enter a day twice; the
	// refused request leaves it deliverable.
	caID := uploadBalancedAudience(t, p, f, 10, 5)
	ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: imageOfAdult(), budget: 500}})
	if err := p.RunDay([]string{ids[0], ids[0]}, 1); err == nil {
		t.Error("ad listed twice: want error")
	}
	if err := p.RunDay(ids, 1); err != nil {
		t.Errorf("day after a refused request: %v", err)
	}
}

func TestRejectedAdsAreSkippedNotFatal(t *testing.T) {
	p, f := newTestPlatform(t, 302)
	caID := uploadBalancedAudience(t, p, f, 50, 4)
	cmp, _ := p.CreateCampaign("c", ObjectiveTraffic, SpecialNone, 2019)
	targeting := Targeting{CustomAudienceIDs: []string{caID}}
	img := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	okAd, err := p.CreateAd(cmp.ID, Creative{Image: img}, targeting, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetReviewRejectProb(1); err != nil {
		t.Fatal(err)
	}
	rejected, err := p.CreateAd(cmp.ID, Creative{Image: img}, targeting, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rejected.Status != StatusRejected {
		t.Fatal("setup: second ad should be rejected")
	}
	if err := p.RunDay([]string{okAd.ID, rejected.ID}, 5); err != nil {
		t.Fatalf("run with rejected ad present: %v", err)
	}
	if _, err := p.Insights(rejected.ID); err == nil {
		t.Error("rejected ad should have no insights")
	}
	if _, err := p.Insights(okAd.ID); err != nil {
		t.Errorf("active ad should have insights: %v", err)
	}
}

// splitAudience builds the §3.3 race-split audience: white FL voters and
// Black NC voters (or reversed), returning the custom audience ID.
func splitAudience(t *testing.T, p *Platform, f *fixture, count int, reversed bool, seed int64) string {
	t.Helper()
	rng := newRand(seed)
	flRace, ncRace := demo.RaceWhite, demo.RaceBlack
	if reversed {
		flRace, ncRace = demo.RaceBlack, demo.RaceWhite
	}
	hashes := raceHashes(f.registry.Records, flRace, count, rng)
	hashes = append(hashes, raceHashes(f.ncReg.Records, ncRace, count, rng)...)
	name := "split"
	if reversed {
		name = "split-rev"
	}
	ca, err := p.CreateCustomAudience(name, hashes)
	if err != nil {
		t.Fatal(err)
	}
	return ca.ID
}

func TestDeliverySkewsTowardCongruentRace(t *testing.T) {
	// The paper's core finding, as an emergent property: two identical ads
	// differing only in the pictured person's race deliver to measurably
	// different racial mixes. Measured with the §3.3 split methodology.
	p, f := newTestPlatform(t, 303)
	caID := splitAudience(t, p, f, 1500, false, 6) // white FL + Black NC
	imgW := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgB := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sw, sb := launchPair(t, p, caID, imgW, imgB, 800)
	// Within this audience, NC impressions are deliveries to Black users.
	blackFracW := regionFraction(sw, demo.StateNC)
	blackFracB := regionFraction(sb, demo.StateNC)
	t.Logf("white-image ad: %d impressions, %.1f%% Black; Black-image ad: %d impressions, %.1f%% Black",
		sw.Impressions, 100*blackFracW, sb.Impressions, 100*blackFracB)
	// A two-ad pair shows a smaller gap than a full campaign (less
	// competitive selection), but it must still be clearly positive.
	if blackFracB <= blackFracW+0.03 {
		t.Errorf("Black-image ad delivered %.1f%% Black vs white-image %.1f%%; want a clear congruent skew",
			100*blackFracB, 100*blackFracW)
	}
}

func TestAblationNoEARRemovesSkew(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(304)
	cfg.UseEAR = false
	p, err := New(cfg, f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := splitAudience(t, p, f, 1500, false, 7)
	imgW := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgB := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sw, sb := launchPair(t, p, caID, imgW, imgB, 800)
	gap := regionFraction(sb, demo.StateNC) - regionFraction(sw, demo.StateNC)
	t.Logf("no-eAR gap: %.1f points (%d + %d impressions)", 100*gap, sw.Impressions, sb.Impressions)
	if math.Abs(gap) > 0.10 {
		t.Errorf("content-blind auction still shows %.1f-point race gap", 100*gap)
	}
}

func TestDeliverySkewsOlderThanAudience(t *testing.T) {
	// §5.3: over 70% of delivery went to 45+ despite 58% of the target
	// audience being 45+. Mechanism here: stiffer competition for younger
	// users. Check delivery over-represents 45+ relative to the audience.
	p, f := newTestPlatform(t, 305)
	caID := uploadBalancedAudience(t, p, f, 150, 8)
	ca, err := p.Audience(caID)
	if err != nil {
		t.Fatal(err)
	}
	var audienceOld int
	for _, idx := range ca.members {
		if f.pop.View(int(idx)).Age() >= 45 {
			audienceOld++
		}
	}
	audienceFrac := float64(audienceOld) / float64(ca.Size)

	img := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	sa, _ := launchPair(t, p, caID, img, img, 250)
	var old, all int
	for k, n := range sa.Breakdown {
		all += n
		if k.Age >= demo.Age45to54 {
			old += n
		}
	}
	deliveredFrac := float64(old) / float64(all)
	if deliveredFrac <= audienceFrac+0.03 {
		t.Errorf("delivery 45+ fraction %.2f vs audience %.2f; want a clear old skew", deliveredFrac, audienceFrac)
	}
}

func TestOutOfStateLeakageSmall(t *testing.T) {
	p, f := newTestPlatform(t, 306)
	caID := uploadBalancedAudience(t, p, f, 150, 9)
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sa, _ := launchPair(t, p, caID, img, img, 250)
	leak := regionFraction(sa, demo.StateOther)
	if leak > 0.02 {
		t.Errorf("out-of-state leakage %.2f%%, want < 2%% (§3.3 reports < 1%%)", 100*leak)
	}
}

// regionFraction returns the fraction of impressions delivered in a region.
func regionFraction(s *AdStats, region demo.State) float64 {
	var in, all int
	for k, n := range s.Breakdown {
		all += n
		if k.Region == region {
			in += n
		}
	}
	if all == 0 {
		return math.NaN()
	}
	return float64(in) / float64(all)
}

func TestPoissonProperties(t *testing.T) {
	rng := newRand(42)
	// Mean of Poisson(λ) draws should approximate λ.
	const lambda = 0.3
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, sessionThreshold(lambda))
	}
	if mean := float64(sum) / n; math.Abs(mean-lambda) > 0.02 {
		t.Errorf("poisson mean %v, want ≈ %v", mean, lambda)
	}
	// A rate that is not positive gives 0 without consuming a draw.
	probe := newRand(7)
	if poisson(probe, sessionThreshold(0)) != 0 || poisson(probe, sessionThreshold(-1)) != 0 {
		t.Error("non-positive lambda should give 0")
	}
	if probe.Int63() != newRand(7).Int63() {
		t.Error("non-positive lambda consumed a draw")
	}
}

func TestFrequencyCapBoundsPerUserImpressions(t *testing.T) {
	// With a tiny audience and a large budget, impressions per user would
	// explode without the cap; with it, impressions ≤ cap × audience.
	f := sharedFixture(t)
	cfg := testConfig(310)
	cfg.FrequencyCap = 2
	p, err := New(cfg, f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := uploadBalancedAudience(t, p, f, 5, 31) // ~150 users
	ca, err := p.Audience(caID)
	if err != nil {
		t.Fatal(err)
	}
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	sa, _ := launchPair(t, p, caID, img, img, 5000)
	if sa.Impressions > 2*ca.Size {
		t.Errorf("impressions %d exceed cap×audience %d", sa.Impressions, 2*ca.Size)
	}
	if sa.Reach > ca.Size {
		t.Errorf("reach %d exceeds audience %d", sa.Reach, ca.Size)
	}
}

func TestHourlySeriesSumsAndSpreads(t *testing.T) {
	p, f := newTestPlatform(t, 311)
	caID := uploadBalancedAudience(t, p, f, 100, 32)
	img := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sa, _ := launchPair(t, p, caID, img, img, 400)
	if len(sa.HourlySeries) != p.cfg.Ticks {
		t.Fatalf("series length %d, want %d ticks", len(sa.HourlySeries), p.cfg.Ticks)
	}
	var sum, nonZero int
	for _, n := range sa.HourlySeries {
		sum += n
		if n > 0 {
			nonZero++
		}
	}
	if sum != sa.Impressions {
		t.Errorf("hourly sum %d != impressions %d", sum, sa.Impressions)
	}
	// Pacing must spread delivery over the day, not dump it in a few ticks.
	if nonZero < p.cfg.Ticks/3 {
		t.Errorf("delivery concentrated in %d of %d ticks", nonZero, p.cfg.Ticks)
	}
}

func TestRetrainKeepsWorkingModel(t *testing.T) {
	p, f := newTestPlatform(t, 312)
	caID := uploadBalancedAudience(t, p, f, 50, 33)
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	sa, _ := launchPair(t, p, caID, img, img, 300)
	if sa.Impressions == 0 {
		t.Fatal("no impressions before retrain")
	}
	if p.ServedLogSize() == 0 {
		t.Fatal("served buffer empty after delivery")
	}
	if err := p.Retrain(TrainingConfig{Seed: 999, LogRows: 8000}); err != nil {
		t.Fatal(err)
	}
	if p.ServedLogSize() != 0 {
		t.Error("served buffer should reset after retraining")
	}
	// New ads under the retrained model still deliver.
	caID2 := uploadBalancedAudience(t, p, f, 50, 34)
	sb, _ := launchPair(t, p, caID2, img, img, 300)
	if sb.Impressions == 0 {
		t.Error("no impressions after retrain")
	}
	// Tiny retraining logs are rejected.
	if err := p.Retrain(TrainingConfig{Seed: 1, LogRows: 10}); err == nil {
		t.Error("tiny retrain log: want error")
	}
}

// TestNearlyFullServedLogRecordsTheSameRows: an in-process day stops buffering
// served rows where the retraining buffer ends. What it records must be what
// a day that buffered every row records: on a platform whose buffer has room
// for 200 more rows, the first 200 rows the same day leaves on a platform
// whose buffer was empty — at one shard and at three, where the room is
// shared in shard order.
func TestNearlyFullServedLogRecordsTheSameRows(t *testing.T) {
	const room = 200
	for _, workers := range []int{1, 3} {
		var logs [2][]servedRow
		for i, used := range []int{0, maxServedLog - room} {
			p, f := newTestPlatform(t, 314)
			caID := uploadBalancedAudience(t, p, f, 50, 35)
			img := image.FromProfile(demo.AllProfiles()[0])
			ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: img, budget: 300}, {img: img, budget: 300}})
			p.served = make([]servedRow, used)
			if err := p.RunDayWorkers(ids, 5, workers); err != nil {
				t.Fatal(err)
			}
			logs[i] = p.served[used:]
		}
		all, tail := logs[0], logs[1]
		if len(all) <= room || len(tail) != room {
			t.Fatalf("workers=%d: the day served %d rows, the nearly full buffer took %d; want more than %d and exactly %d", workers, len(all), len(tail), room, room)
		}
		for i, row := range tail {
			if want := all[i]; row.user != want.user || row.clicked != want.clicked || row.ad.ID != want.ad.ID {
				t.Fatalf("workers=%d row %d: recorded %+v, an unbounded day records %+v", workers, i, row, want)
			}
		}
	}
}
