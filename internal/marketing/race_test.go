package marketing

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// TestConcurrentTrafficRace drives the API from many goroutines mixing
// mutating calls (CreateAd, Deliver) with reads (GetAd, Insights, metrics).
// Run under -race it is the regression net for the platform's account
// locking: the serving path must stay race-free without the server-side
// big lock it used to rely on.
func TestConcurrentTrafficRace(t *testing.T) {
	e := testEnv(t)
	caID := e.uploadAudience(t, 800)

	profiles := []demo.Profile{
		{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
		{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedElderly},
		{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedTeen},
	}
	createAd := func(worker, i int) (*AdResponse, error) {
		cmp, err := e.client.CreateCampaign(context.Background(), CreateCampaignRequest{
			Name:      fmt.Sprintf("race-w%d-%d", worker, i),
			Objective: "TRAFFIC",
		})
		if err != nil {
			return nil, err
		}
		img := image.FromProfile(profiles[(worker+i)%len(profiles)])
		return e.client.CreateAd(context.Background(), CreateAdRequest{
			CampaignID:       cmp.ID,
			Creative:         WireCreative{Image: WireImageFrom(img), Headline: "race"},
			Targeting:        WireTargeting{CustomAudienceIDs: []string{caID}},
			DailyBudgetCents: 120,
		})
	}

	const (
		writers   = 4 // create → deliver → insights chains
		readers   = 3 // GetAd / Insights polls on delivered ads
		scrapers  = 2 // /metrics + /healthz
		adsPerW   = 2
		pollRound = 6
	)
	delivered := make(chan string, writers*adsPerW)
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adsPerW; i++ {
				ad, err := createAd(w, i)
				if err != nil {
					errs <- err
					return
				}
				if ad.Status != "ACTIVE" {
					continue // rare review rejection config drift; nothing to deliver
				}
				if err := e.client.Deliver(context.Background(), []string{ad.ID}, int64(1000+10*w+i)); err != nil {
					errs <- err
					return
				}
				if _, err := e.client.Insights(context.Background(), ad.ID); err != nil {
					errs <- err
					return
				}
				delivered <- ad.ID
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var known []string
			for i := 0; i < pollRound; i++ {
				select {
				case id := <-delivered:
					known = append(known, id)
				case <-time.After(50 * time.Millisecond):
				}
				for _, id := range known {
					if _, err := e.client.GetAd(context.Background(), id); err != nil {
						errs <- err
						return
					}
					if _, err := e.client.InsightsBreakdown(context.Background(), id, "gender"); err != nil {
						errs <- err
						return
					}
				}
				// Reads against unknown ads exercise the 404 path too.
				if _, err := e.client.GetAd(context.Background(), "ad-404"); err == nil {
					errs <- fmt.Errorf("GetAd(ad-404) should fail")
					return
				}
			}
		}()
	}

	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pollRound; i++ {
				for _, path := range []string{"/metrics", "/healthz"} {
					resp, err := http.Get(e.srv.URL + path)
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMetricsEndpoint checks that the server-side registry counts the
// requests the client actually made.
func TestMetricsEndpoint(t *testing.T) {
	e := testEnv(t)
	before := readSnapshot(t, e.srv.URL)
	base := before.Counters[obs.MetricRequests+"|GET /v1/ads/{id}"]
	const n = 4
	for i := 0; i < n; i++ {
		_, _ = e.client.GetAd(context.Background(), "ad-404")
	}
	after := readSnapshot(t, e.srv.URL)
	got := after.Counters[obs.MetricRequests+"|GET /v1/ads/{id}"] - base
	if got != n {
		t.Errorf("GET /v1/ads/{id} counted %d new requests, want %d", got, n)
	}
	notFound := after.Counters[obs.MetricRequests+".4xx|GET /v1/ads/{id}"] - before.Counters[obs.MetricRequests+".4xx|GET /v1/ads/{id}"]
	if notFound != n {
		t.Errorf("4xx counted %d, want %d", notFound, n)
	}
	if after.Histograms[obs.MetricLatency+"|GET /v1/ads/{id}"].Count < n {
		t.Errorf("latency histogram: %+v", after.Histograms[obs.MetricLatency+"|GET /v1/ads/{id}"])
	}
	if after.Gauges[obs.MetricInFlight] != 0 {
		t.Errorf("in-flight gauge = %d at rest", after.Gauges[obs.MetricInFlight])
	}

	resp, err := http.Get(e.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health obs.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz: %+v", health)
	}
}

func readSnapshot(t *testing.T, baseURL string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestClientInjectableClock runs a heavily throttled client against a fake
// clock: the pacing math must hold with zero real waiting.
func TestClientInjectableClock(t *testing.T) {
	e := testEnv(t)
	client, err := NewClient(e.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	fc := obs.NewManualClock()
	client.SetClock(fc)
	client.SetMinInterval(time.Hour)
	start := time.Now()
	for i := 0; i < 4; i++ {
		_, _ = client.GetAd(context.Background(), "ad-404") // errors fine; pacing is what's tested
	}
	if real := time.Since(start); real > 30*time.Second {
		t.Fatalf("throttled requests consumed %v of wall clock", real)
	}
	// First request goes through unthrottled; the next three each wait out
	// the remaining interval on the fake clock.
	if got := slept(fc); got != 3*time.Hour {
		t.Errorf("fake clock slept %v, want 3h", got)
	}
	// Restoring the nil clock falls back to the system clock.
	client.SetClock(nil)
	client.SetMinInterval(0)
	if _, err := client.GetAd(context.Background(), "ad-404"); err == nil {
		t.Error("GetAd(ad-404) should fail")
	}
}
