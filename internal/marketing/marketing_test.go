package marketing

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

type env struct {
	client *Client
	srv    *httptest.Server
	fl     *voter.Registry
	pop    *population.Population
	behave *population.Behavior
}

var (
	envOnce sync.Once
	shared  env
)

func testEnv(t *testing.T) *env {
	t.Helper()
	envOnce.Do(func() {
		flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 501)
		flCfg.NumVoters = 12000
		fl, err := voter.Generate(flCfg)
		if err != nil {
			panic(err)
		}
		pop, err := population.Build(population.Config{Seed: 502}, fl)
		if err != nil {
			panic(err)
		}
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		cfg := platform.DefaultConfig(503)
		cfg.Training.LogRows = 8000
		cfg.ReviewRejectProb = 0
		p, err := platform.New(cfg, pop, behave)
		if err != nil {
			panic(err)
		}
		s, err := NewServer(p)
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(s.Handler())
		client, err := NewClient(ts.URL)
		if err != nil {
			panic(err)
		}
		shared = env{client: client, srv: ts, fl: fl, pop: pop, behave: behave}
	})
	return &shared
}

func (e *env) uploadAudience(t *testing.T, n int) string {
	t.Helper()
	hashes := make([]string, 0, n)
	for i := range e.fl.Records[:n] {
		r := &e.fl.Records[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	resp, err := e.client.CreateAudience(context.Background(), "api-test", hashes)
	if err != nil {
		t.Fatal(err)
	}
	if resp.MatchedSize == 0 {
		t.Fatal("no users matched")
	}
	return resp.ID
}

func TestNewServerAndClientValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil platform: want error")
	}
	if _, err := NewClient("not a url"); err == nil {
		t.Error("bad URL: want error")
	}
	if _, err := NewClient("ftp://x"); err == nil {
		t.Error("bad scheme: want error")
	}
}

func TestEndToEndCampaignFlow(t *testing.T) {
	e := testEnv(t)
	caID := e.uploadAudience(t, 3000)

	cmp, err := e.client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "flow", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	ad, err := e.client.CreateAd(context.Background(), CreateAdRequest{
		CampaignID: cmp.ID,
		Creative: WireCreative{
			Image:    WireImageFrom(img),
			Headline: "Advance your career",
			LinkURL:  "https://example.edu/masters",
		},
		Targeting:        WireTargeting{CustomAudienceIDs: []string{caID}},
		DailyBudgetCents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ad.Status != "ACTIVE" {
		t.Fatalf("ad status %q", ad.Status)
	}
	got, err := e.client.GetAd(context.Background(), ad.ID)
	if err != nil || got.ID != ad.ID {
		t.Fatalf("GetAd: %+v, %v", got, err)
	}
	// A shard count the engine cannot run is refused, never replaced by one
	// the caller did not ask for: the ad stays deliverable.
	for _, workers := range []int{-1, 65, 100} {
		var apiErr *APIError
		if err := e.client.DeliverWorkers(context.Background(), []string{ad.ID}, 42, workers); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("deliver with workers=%d: got %v, want APIError 400", workers, err)
		}
	}
	if err := e.client.Deliver(context.Background(), []string{ad.ID}, 42); err != nil {
		t.Fatal(err)
	}
	ins, err := e.client.Insights(context.Background(), ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Impressions <= 0 || ins.Reach <= 0 {
		t.Fatalf("insights: %+v", ins)
	}
	var sum int
	for _, row := range ins.Breakdown {
		sum += row.Impressions
		if _, err := demo.ParseAgeBucket(row.Age); err != nil {
			t.Errorf("bad age label %q", row.Age)
		}
		if _, err := demo.ParseGender(row.Gender); err != nil {
			t.Errorf("bad gender label %q", row.Gender)
		}
		if _, err := demo.ParseState(row.Region); err != nil {
			t.Errorf("bad region label %q", row.Region)
		}
	}
	if sum != ins.Impressions {
		t.Errorf("breakdown sums to %d, impressions %d", sum, ins.Impressions)
	}
	// Breakdown must be deterministically sorted.
	for i := 1; i < len(ins.Breakdown); i++ {
		a, b := ins.Breakdown[i-1], ins.Breakdown[i]
		if a.Age > b.Age || (a.Age == b.Age && a.Gender > b.Gender) {
			t.Errorf("breakdown not sorted at %d", i)
		}
	}
}

func TestAPIErrors(t *testing.T) {
	e := testEnv(t)
	if _, err := e.client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "x", Objective: "REACH"}); err == nil {
		t.Error("bad objective: want error")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != 400 {
		t.Errorf("want APIError 400, got %v", err)
	}
	if _, err := e.client.Insights(context.Background(), "ad-404"); err == nil {
		t.Error("unknown ad insights: want error")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != 404 {
		t.Errorf("want APIError 404, got %v", err)
	}
	if _, err := e.client.GetAd(context.Background(), "ad-404"); err == nil {
		t.Error("unknown ad: want error")
	}
	if _, err := e.client.AppealAd(context.Background(), "ad-404"); err == nil {
		t.Error("appeal unknown ad: want error")
	}
	if _, err := e.client.CreateAudience(context.Background(), "", nil); err == nil {
		t.Error("empty audience: want error")
	}
	if err := e.client.Deliver(context.Background(), nil, 1); err == nil {
		t.Error("deliver nothing: want error")
	}
	// Special-category restriction surfaces through the API.
	cmp, err := e.client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "emp", Objective: "TRAFFIC", SpecialAdCategory: "EMPLOYMENT"})
	if err != nil {
		t.Fatal(err)
	}
	caID := e.uploadAudience(t, 500)
	_, err = e.client.CreateAd(context.Background(), CreateAdRequest{
		CampaignID:       cmp.ID,
		Creative:         WireCreative{Image: WireImageFrom(image.Features{HasPerson: true, AgeYears: 30})},
		Targeting:        WireTargeting{CustomAudienceIDs: []string{caID}, AgeMax: 45},
		DailyBudgetCents: 200,
	})
	if err == nil {
		t.Error("age targeting in employment category: want API error")
	} else if !strings.Contains(err.Error(), "forbids age targeting") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestWireImageRoundTrip(t *testing.T) {
	f := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedTeen})
	f.Nuisance[2] = 0.5
	f.Job = "lumber"
	w := WireImageFrom(f)
	back, err := w.ToFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Errorf("round trip: %+v != %+v", back, f)
	}
	bad := WireImage{Nuisance: []float64{1, 2}}
	if _, err := bad.ToFeatures(); err == nil {
		t.Error("short nuisance: want error")
	}
	// Omitted nuisance is allowed (zero vector).
	empty := WireImage{HasPerson: true}
	if _, err := empty.ToFeatures(); err != nil {
		t.Errorf("empty nuisance: %v", err)
	}
}

func TestWireTargetingParsing(t *testing.T) {
	w := WireTargeting{
		CustomAudienceIDs: []string{"ca-1"},
		Genders:           []string{"female"},
		States:            []string{"FL", "NC"},
	}
	tg, err := w.ToTargeting()
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.Genders) != 1 || tg.Genders[0] != demo.GenderFemale {
		t.Errorf("genders: %v", tg.Genders)
	}
	if len(tg.States) != 2 {
		t.Errorf("states: %v", tg.States)
	}
	w.Genders = []string{"attack-helicopter"}
	if _, err := w.ToTargeting(); err == nil {
		t.Error("bad gender: want error")
	}
	w.Genders = nil
	w.States = []string{"CA"}
	if _, err := w.ToTargeting(); err == nil {
		t.Error("bad state: want error")
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	e := testEnv(t)
	resp, err := e.srv.Client().Post(e.srv.URL+"/v1/campaigns", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected too (DisallowUnknownFields).
	resp2, err := e.srv.Client().Post(e.srv.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"name":"x","objective":"TRAFFIC","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("unknown field: status %d, want 400", resp2.StatusCode)
	}
}

func TestClientRateLimit(t *testing.T) {
	e := testEnv(t)
	e.client.SetMinInterval(30 * time.Millisecond)
	defer e.client.SetMinInterval(0)
	start := time.Now()
	for i := 0; i < 3; i++ {
		// Errors are fine; only pacing matters here.
		_, _ = e.client.GetAd(context.Background(), "ad-404")
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("3 throttled requests took %v, want >= 60ms", elapsed)
	}
}

func TestInsightsBreakdownDimensions(t *testing.T) {
	e := testEnv(t)
	caID := e.uploadAudience(t, 2000)
	cmp, err := e.client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "bd", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	img := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	ad, err := e.client.CreateAd(context.Background(), CreateAdRequest{
		CampaignID:       cmp.ID,
		Creative:         WireCreative{Image: WireImageFrom(img)},
		Targeting:        WireTargeting{CustomAudienceIDs: []string{caID}},
		DailyBudgetCents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.client.Deliver(context.Background(), []string{ad.ID}, 77); err != nil {
		t.Fatal(err)
	}
	full, err := e.client.Insights(context.Background(), ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	genderOnly, err := e.client.InsightsBreakdown(context.Background(), ad.ID, "gender")
	if err != nil {
		t.Fatal(err)
	}
	if len(genderOnly.Breakdown) > 3 {
		t.Errorf("gender-only breakdown has %d rows", len(genderOnly.Breakdown))
	}
	var sum int
	for _, row := range genderOnly.Breakdown {
		if row.Age != "" || row.Region != "" {
			t.Errorf("unexpected dimension in row: %+v", row)
		}
		sum += row.Impressions
	}
	if sum != full.Impressions {
		t.Errorf("gender-only rows sum to %d, impressions %d", sum, full.Impressions)
	}
	// Unknown dimensions are rejected.
	if _, err := e.client.InsightsBreakdown(context.Background(), ad.ID, "species"); err == nil {
		t.Error("unknown dimension: want error")
	}
}
