package platform

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// fixture shares one world across tests. New trains the models once per
// (world, Seed, Training) and shares them, so tests that build platforms with
// the same seed train once between them.
type fixture struct {
	pop      *population.Population
	behave   *population.Behavior
	registry *voter.Registry // FL
	ncReg    *voter.Registry
}

var (
	fixtureOnce sync.Once
	fx          fixture
)

func sharedFixture(t testing.TB) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 101)
		flCfg.NumVoters = 24000
		ncCfg := voter.DefaultGeneratorConfig(demo.StateNC, 102)
		ncCfg.NumVoters = 24000
		fl, err := voter.Generate(flCfg)
		if err != nil {
			panic(err)
		}
		nc, err := voter.Generate(ncCfg)
		if err != nil {
			panic(err)
		}
		pop, err := population.Build(population.Config{Seed: 103}, fl, nc)
		if err != nil {
			panic(err)
		}
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		fx = fixture{pop: pop, behave: behave, registry: fl, ncReg: nc}
	})
	return &fx
}

func testConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Training.LogRows = 12000
	cfg.ReviewRejectProb = 0
	return cfg
}

func newTestPlatform(t *testing.T, seed int64) (*Platform, *fixture) {
	t.Helper()
	f := sharedFixture(t)
	p, err := New(testConfig(seed), f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	return p, f
}

// uploadBalancedAudience creates a custom audience from a stratified sample
// of both registries and returns its ID.
func uploadBalancedAudience(t *testing.T, p *Platform, f *fixture, perCell int, seed int64) string {
	t.Helper()
	return balancedAudience(t, p, f, perCell, seed).ID
}

// balancedAudience is uploadBalancedAudience returning the audience itself.
func balancedAudience(t *testing.T, p *Platform, f *fixture, perCell int, seed int64) *CustomAudience {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var hashes []string
	for _, reg := range []*voter.Registry{f.registry, f.ncReg} {
		sample := voter.StratifiedSample(reg.Records, perCell, rng)
		for i := range sample {
			r := &sample[i]
			hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
	}
	ca, err := p.CreateCustomAudience("balanced", hashes)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Size == 0 {
		t.Fatal("audience matched no users")
	}
	return ca
}

func TestObjectiveAndCategoryRoundTrip(t *testing.T) {
	for _, o := range []Objective{ObjectiveTraffic, ObjectiveConversions, ObjectiveAwareness} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("objective %v: %v, %v", o, got, err)
		}
	}
	if _, err := ParseObjective("REACH"); err == nil {
		t.Error("unknown objective: want error")
	}
	for _, c := range []SpecialAdCategory{SpecialNone, SpecialEmployment, SpecialHousing, SpecialCredit} {
		got, err := ParseSpecialAdCategory(c.String())
		if err != nil || got != c {
			t.Errorf("category %v: %v, %v", c, got, err)
		}
	}
	if _, err := ParseSpecialAdCategory("POLITICS"); err == nil {
		t.Error("unknown category: want error")
	}
}

func TestTargetingValidateSpecialCategories(t *testing.T) {
	base := Targeting{CustomAudienceIDs: []string{"ca-1"}}
	if err := base.Validate(SpecialNone); err != nil {
		t.Errorf("plain targeting: %v", err)
	}
	aged := base
	aged.AgeMin, aged.AgeMax = 25, 45
	if err := aged.Validate(SpecialNone); err != nil {
		t.Errorf("age-limited ordinary ad: %v", err)
	}
	if err := aged.Validate(SpecialEmployment); err == nil {
		t.Error("age targeting in employment category: want error")
	}
	gendered := base
	gendered.Genders = []demo.Gender{demo.GenderFemale}
	if err := gendered.Validate(SpecialHousing); err == nil {
		t.Error("gender targeting in housing category: want error")
	}
	empty := Targeting{}
	if err := empty.Validate(SpecialNone); err == nil {
		t.Error("no audiences: want error")
	}
	bad := base
	bad.AgeMin, bad.AgeMax = 40, 30
	if err := bad.Validate(SpecialNone); err == nil {
		t.Error("inverted age range: want error")
	}
}

func TestNewValidation(t *testing.T) {
	f := sharedFixture(t)
	if _, err := New(testConfig(1), nil, f.behave); err == nil {
		t.Error("nil population: want error")
	}
	if _, err := New(testConfig(1), f.pop, nil); err == nil {
		t.Error("nil behaviour: want error")
	}
	cfg := testConfig(1)
	cfg.Ticks = 1
	if _, err := New(cfg, f.pop, f.behave); err == nil {
		t.Error("1 tick: want error")
	}
	cfg = testConfig(1)
	cfg.FrequencyCap = maxFrequencyCap + 1
	if _, err := New(cfg, f.pop, f.behave); err == nil {
		t.Error("frequency cap beyond the per-slot counter: want error")
	}
	cfg = testConfig(1)
	cfg.Training.LogRows = 10
	if _, err := New(cfg, f.pop, f.behave); !errors.Is(err, errLogRows) {
		t.Errorf("tiny training log: got %v, want errLogRows", err)
	}
	// The configuration is checked before the world is looked at.
	if _, err := New(cfg, nil, nil); !errors.Is(err, errLogRows) {
		t.Errorf("tiny training log and no population: got %v, want errLogRows", err)
	}
}

// TestRetrainWorksOnEveryAcceptedConfig: Retrain's zero LogRows means the
// platform's, so every training log size Validate accepts must retrain.
func TestRetrainWorksOnEveryAcceptedConfig(t *testing.T) {
	f := sharedFixture(t)
	for _, rows := range []int{DefaultConfig(1).Training.LogRows, 0, 1000, 12000} {
		cfg := DefaultConfig(61)
		cfg.Training.LogRows = rows
		if cfg.Validate() != nil {
			continue
		}
		p, err := New(cfg, f.pop, f.behave)
		if err != nil {
			t.Fatalf("LogRows %d: %v", rows, err)
		}
		if err := p.Retrain(TrainingConfig{Seed: 62}); err != nil {
			t.Errorf("LogRows %d: Retrain with a zero LogRows: %v", rows, err)
		}
	}
}

// TestConfigRefusesWhatItWouldReinterpret: a negative or NaN ValueNoise
// would silently mean no noise (the kernel draws noise only for σ > 0), a
// negative FrequencyCap silently no cap. Validate refuses both, naming the
// field, and keeps the zeros that do mean "none".
func TestConfigRefusesWhatItWouldReinterpret(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"ValueNoise", func(c *Config) { c.ValueNoise = -0.7 }},
		{"ValueNoise", func(c *Config) { c.ValueNoise = math.NaN() }},
		{"ValueNoise", func(c *Config) { c.ValueNoise = math.Inf(1) }},
		{"FrequencyCap", func(c *Config) { c.FrequencyCap = -1 }},
	} {
		cfg := testConfig(1)
		c.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("ValueNoise %v, FrequencyCap %d: got %v, want an error naming %s", cfg.ValueNoise, cfg.FrequencyCap, err, c.field)
		}
	}
	cfg := testConfig(1)
	cfg.ValueNoise, cfg.FrequencyCap = 0, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("no noise and no cap: %v", err)
	}
}

// TestShardCountRefusedNotSubstituted: the three ways into a day share one
// range check, so none of them runs a shard count the caller did not ask for.
func TestShardCountRefusedNotSubstituted(t *testing.T) {
	p, f := newTestPlatform(t, 202)
	caID := uploadBalancedAudience(t, p, f, 20, 1)
	ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: image.FromProfile(demo.AllProfiles()[0]), budget: 300}})
	const over = maxDeliveryWorkers + 1
	for _, workers := range []int{0, over} {
		if err := p.RunDayWorkers(ids, 1, workers); !errors.Is(err, errShardCount) {
			t.Errorf("RunDayWorkers(%d): got %v, want errShardCount", workers, err)
		}
	}
	if ad, err := p.Ad(ids[0]); err != nil || ad.Status != StatusActive {
		t.Errorf("a refused day delivered: ad %+v, %v", ad, err)
	}
	if _, err := p.BeginDaySession("s", ids, 1, 0, over); !errors.Is(err, errShardCount) {
		t.Errorf("BeginDaySession(shards=%d): got %v, want errShardCount", over, err)
	}
	if _, err := NewPacingController(&DayInit{Ticks: 2, Ads: make([]DayAdPlan, 1)}, over); !errors.Is(err, errShardCount) {
		t.Errorf("NewPacingController(shards=%d): got %v, want errShardCount", over, err)
	}
	if err := p.RunDayWorkers(ids, 1, maxDeliveryWorkers); err != nil {
		t.Errorf("RunDayWorkers(%d), the largest count: %v", maxDeliveryWorkers, err)
	}
}

func TestCustomAudienceMatching(t *testing.T) {
	p, f := newTestPlatform(t, 200)
	recs := f.registry.Records[:500]
	hashes := make([]string, 0, len(recs)+2)
	for i := range recs {
		r := &recs[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	// Unknown hashes and duplicates must be tolerated silently.
	hashes = append(hashes, "deadbeef", hashes[0])
	ca, err := p.CreateCustomAudience("test", hashes)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Size == 0 || ca.Size > 500 {
		t.Errorf("matched %d of 500", ca.Size)
	}
	// Match rate should be near the population build rate.
	if rate := float64(ca.Size) / 500; rate < 0.3 || rate > 0.95 {
		t.Errorf("match rate %v", rate)
	}
	if _, err := p.CreateCustomAudience("", hashes); err == nil {
		t.Error("unnamed audience: want error")
	}
	if _, err := p.CreateCustomAudience("empty", nil); err == nil {
		t.Error("empty upload: want error")
	}
}

func TestCreateAdValidation(t *testing.T) {
	p, f := newTestPlatform(t, 201)
	caID := uploadBalancedAudience(t, p, f, 20, 1)
	cmp, err := p.CreateCampaign("c", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	creative := Creative{Image: image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})}
	good := Targeting{CustomAudienceIDs: []string{caID}}
	if _, err := p.CreateAd(cmp.ID, creative, good, 200); err != nil {
		t.Fatalf("valid ad: %v", err)
	}
	if _, err := p.CreateAd("cmp-404", creative, good, 200); err == nil {
		t.Error("unknown campaign: want error")
	}
	if _, err := p.CreateAd(cmp.ID, creative, good, 0); err == nil {
		t.Error("zero budget: want error")
	}
	bad := Targeting{CustomAudienceIDs: []string{"ca-404"}}
	if _, err := p.CreateAd(cmp.ID, creative, bad, 200); err == nil {
		t.Error("unknown audience: want error")
	}
	if _, err := p.CreateCampaign("", ObjectiveTraffic, SpecialNone, 2019); err == nil {
		t.Error("unnamed campaign: want error")
	}
}

func TestAdReviewAndAppeal(t *testing.T) {
	p, f := newTestPlatform(t, 202)
	caID := uploadBalancedAudience(t, p, f, 20, 2)
	cmp, _ := p.CreateCampaign("c", ObjectiveTraffic, SpecialNone, 2019)
	creative := Creative{Image: image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})}
	targeting := Targeting{CustomAudienceIDs: []string{caID}}

	if err := p.SetReviewRejectProb(2); err == nil {
		t.Error("reject prob > 1: want error")
	}
	if err := p.SetReviewRejectProb(1); err != nil {
		t.Fatal(err)
	}
	ad, err := p.CreateAd(cmp.ID, creative, targeting, 200)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Status != StatusRejected {
		t.Fatalf("status %v, want rejected under prob 1", ad.Status)
	}
	// Appeal under prob 1 keeps it rejected; under prob 0 it recovers. The
	// returned ads are snapshots, so each appeal's outcome is read from its
	// own return value.
	denied, err := p.AppealAd(ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if denied.Status != StatusRejected {
		t.Error("appeal under reject prob 1 should fail")
	}
	if err := p.SetReviewRejectProb(0); err != nil {
		t.Fatal(err)
	}
	granted, err := p.AppealAd(ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if granted.Status != StatusActive {
		t.Error("appeal under reject prob 0 should recover the ad")
	}
	// Appealing a non-rejected ad is an error.
	if _, err := p.AppealAd(ad.ID); err == nil {
		t.Error("appealing active ad: want error")
	}
	if _, err := p.AppealAd("ad-404"); err == nil {
		t.Error("unknown ad: want error")
	}
}

func TestFoldedEARMatchesFullModel(t *testing.T) {
	p, f := newTestPlatform(t, 203)
	// Property: for random creatives and users, the folded evaluation must
	// equal the full featurized logistic prediction.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 50; trial++ {
		prof := demo.AllProfiles()[rng.Intn(20)]
		img := image.FromProfile(prof)
		if rng.Float64() < 0.3 {
			img.Job = image.JobTypes()[rng.Intn(11)]
		}
		if rng.Float64() < 0.1 {
			img = image.Features{} // no-person creative
		}
		pc := p.perceive(img)
		folded := p.ear.fold(&pc)
		u := f.pop.View(rng.Intn(f.pop.Len()))
		x := make([]float64, p.ear.layout.dim)
		p.ear.layout.featurize(u, &pc, x)
		want := p.ear.fit.Predict(x)
		got := folded.rate(u)
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("trial %d: folded %v != full %v", trial, got, want)
		}
	}
}

func TestEARLearnsHomophily(t *testing.T) {
	p, f := newTestPlatform(t, 204)
	blackImg := p.perceive(image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult}))
	whiteImg := p.perceive(image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult}))
	fb := p.ear.fold(&blackImg)
	fw := p.ear.fold(&whiteImg)
	// Averaged over many users of each race, the trained model must predict
	// higher action rates for congruent pairings.
	var bOnB, bOnW, wOnB, wOnW float64
	var nb, nw int
	for i := 0; i < f.pop.Len(); i++ {
		u := f.pop.View(i)
		switch u.Race() {
		case demo.RaceBlack:
			bOnB += fb.rate(u)
			bOnW += fw.rate(u)
			nb++
		case demo.RaceWhite:
			wOnB += fb.rate(u)
			wOnW += fw.rate(u)
			nw++
		}
		if nb > 2000 && nw > 2000 {
			break
		}
	}
	if bOnB/float64(nb) <= bOnW/float64(nb) {
		t.Error("eAR should predict Black users engage more with Black-image ads")
	}
	if wOnW/float64(nw) <= wOnB/float64(nw) {
		t.Error("eAR should predict white users engage more with white-image ads")
	}
}

// imageOfAdult is a shared creative fixture.
func imageOfAdult() image.Features {
	f := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	f.ApplyPresentationBias()
	return f
}
