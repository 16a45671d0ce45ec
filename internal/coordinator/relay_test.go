package coordinator_test

// The relay contract of the replicated CRUD routes: the router reads a body
// once and never decodes it, every admitted shard is handed the same bytes
// under the caller's idempotency key, the shards alone validate, and a
// quarantined shard later catches up on the replicated state the coordinator
// relays, undecoded, from an admitted peer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// received is one mutating request as a shard's handler saw it.
type received struct {
	path, key string
	body      []byte
}

// capture records every POST to a replicated CRUD route in front of a
// shard's handler, and hands the handler the same bytes.
type capture struct {
	mu   sync.Mutex
	seen []received
}

func (c *capture) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && !strings.HasPrefix(r.URL.Path, "/v1/shard/") && r.URL.Path != "/v1/deliver" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				panic(err)
			}
			c.mu.Lock()
			c.seen = append(c.seen, received{r.URL.EscapedPath(), r.Header.Get(marketing.IdempotencyKeyHeader), body})
			c.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

// take returns what was captured since the last take.
func (c *capture) take() []received {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.seen
	c.seen = nil
	return out
}

// rawPost hands a router one request body on a path under an idempotency key
// ("" for none) and returns the status and the response body.
func rawPost(t *testing.T, router http.Handler, path, key string, body []byte) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if key != "" {
		req.Header.Set(marketing.IdempotencyKeyHeader, key)
	}
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// capturing stands caps[i] in front of shard i.
func capturing(caps []*capture) func(*chaos.FleetConfig) {
	return func(cfg *chaos.FleetConfig) {
		cfg.Wrap = func(i int, h http.Handler) http.Handler { return caps[i].wrap(h) }
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func relayedAd(campaignID, audienceID string, i int) marketing.CreateAdRequest {
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	return marketing.CreateAdRequest{
		CampaignID: campaignID,
		Creative: marketing.WireCreative{
			Image:    marketing.WireImageFrom(img),
			Headline: fmt.Sprintf("relay-ad-%d", i),
			LinkURL:  "https://example.test/offer",
		},
		Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{audienceID}},
		DailyBudgetCents: 300 + i,
	}
}

// TestRouterRelaysRequestBytes drives every replicated route through a real
// router over two shards with raw bodies: what each shard's handler receives
// is byte for byte what the router received, a body the API refuses is
// refused by the shards (400 passed through), and only the size limit is the
// router's own answer.
func TestRouterRelaysRequestBytes(t *testing.T) {
	worldHash := worldHash(t)
	caps := []*capture{{}, {}}
	f := launch(t, 2, capturing(caps))
	coord := f.Coord
	const limit = 256 << 10
	// serve is a router process over the fleet's coordinator: called twice, a
	// router and its restarted successor, which shares no idempotency cache
	// with it.
	serve := func() http.Handler {
		router, err := coordinator.NewRouter(coord, f.Reg)
		if err != nil {
			t.Fatal(err)
		}
		router.SetMaxBodyBytes(limit)
		return router.Handler()
	}
	url := serve()

	upload := mustJSON(t, marketing.CreateAudienceRequest{Name: "relay-aud", PIIHashes: worldHash})
	indented, err := json.MarshalIndent(marketing.CreateAudienceRequest{Name: "relay-aud-2", PIIHashes: worldHash[:300]}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	oversized := mustJSON(t, marketing.CreateAudienceRequest{Name: "too-big", PIIHashes: append(append([]string{}, worldHash...), worldHash...)})
	if len(upload) >= limit || len(oversized) <= limit {
		t.Fatalf("fixture sizes %d and %d do not straddle the %d-byte limit", len(upload), len(oversized), limit)
	}
	for _, c := range []struct {
		name, path string
		body       []byte
		status     int
		answer     string // substring of the response
		relayed    bool
	}{
		{"audience", "/v1/customaudiences", upload, 201, `{"id":"ca-1","matched_size":`, true},
		{"audience, indented", "/v1/customaudiences", indented, 201, `{"id":"ca-2","matched_size":`, true},
		{"campaign", "/v1/campaigns", []byte(`{"name":"relay-cmp","objective":"TRAFFIC"}`), 201, `{"id":"cmp-1"}`, true},
		{"ad", "/v1/ads", mustJSON(t, relayedAd("cmp-1", "ca-1", 0)), 201, `{"id":"ad-2","status":"ACTIVE"}`, true},
		{"appeal of an active ad", "/v1/ads/ad-2/appeal", nil, 400, "only rejected ads can be appealed", true},
		{"appeal of no ad", "/v1/ads/ad%2F404/appeal", []byte("ignored"), 404, "unknown ad", true},
		{"malformed", "/v1/customaudiences", []byte(`{"name":"x","pii_hashes":["`), 400, "marketing: malformed request", true},
		{"unknown field", "/v1/customaudiences", []byte(`{"name":"x","pii_hashes":["ab"],"extra":true}`), 400, `unknown field \"extra\"`, true},
		{"unknown field, campaign", "/v1/campaigns", []byte(`{"name":"x","objective":"TRAFFIC","extra":1}`), 400, `unknown field \"extra\"`, true},
		{"empty upload", "/v1/customaudiences", []byte(`{"name":"x","pii_hashes":[]}`), 400, "empty upload", true},
		{"no name", "/v1/customaudiences", []byte(`{"name":"","pii_hashes":["` + worldHash[0] + `"]}`), 400, "needs a name", true},
		{"oversized", "/v1/customaudiences", oversized, 413, fmt.Sprintf("marketing: request body exceeds %d bytes", limit), false},
	} {
		key := "relay-" + c.name
		status, answer := rawPost(t, url, c.path, key, c.body)
		if status != c.status || !strings.Contains(answer, c.answer) {
			t.Errorf("%s: %d %s, want %d with %q", c.name, status, answer, c.status, c.answer)
		}
		for i, cp := range caps {
			got := cp.take()
			if !c.relayed {
				if len(got) != 0 {
					t.Errorf("%s: shard %d was sent %d requests, want none", c.name, i, len(got))
				}
				continue
			}
			if len(got) != 1 {
				t.Errorf("%s: shard %d was sent %d requests, want 1", c.name, i, len(got))
			} else if got[0].path != c.path || got[0].key != key || !bytes.Equal(got[0].body, c.body) {
				t.Errorf("%s: shard %d did not receive the router's request unchanged: path %q key %q, %d bytes (sent %d)",
					c.name, i, got[0].path, got[0].key, len(got[0].body), len(c.body))
			}
		}
	}
	if inv, err := coord.Inventory(context.Background()); err != nil || inv.Audiences != 2 || inv.Campaigns != 1 || inv.Ads != 1 {
		t.Fatalf("inventory after the table: %+v, %v (refused requests must create nothing)", inv, err)
	}

	// A lost response: the caller retries under the same key. Through the same
	// router its idempotency cache answers; through a router that never saw
	// the first attempt (a restarted one) the forwarded key dedups at every
	// shard. Either way the audience exists once, under one ID.
	body := mustJSON(t, marketing.CreateAudienceRequest{Name: "once", PIIHashes: worldHash[:100]})
	_, first := rawPost(t, url, "/v1/customaudiences", "lost-response", body)
	for name, via := range map[string]http.Handler{"same router": url, "fresh router": serve()} {
		status, again := rawPost(t, via, "/v1/customaudiences", "lost-response", body)
		if status != 201 || again != first || !strings.Contains(first, `"id":"ca-3"`) {
			t.Errorf("retry through the %s: %d %s, first answer %s", name, status, again, first)
		}
	}
	if inv, err := coord.Inventory(context.Background()); err != nil || inv.Audiences != 3 {
		t.Fatalf("inventory after the retries: %+v, %v (want 3 audiences)", inv, err)
	}
}

// TestStateTransferIsExactAndDurable: a shard that missed an audience, a
// campaign, ads and appeals — one that left its ad rejected and one that
// granted it — rejoins by taking the admitted shard's replicated half. What
// it installs is the reference's bytes exactly, its own delivery tallies stay
// as its WAL recovered them, the appeal outcomes and the review cursor agree
// across shards, and a restart right after the rejoin recovers the installed
// bytes from the store's snapshot.
func TestStateTransferIsExactAndDurable(t *testing.T) {
	ctx := context.Background()
	worldHash := worldHash(t)
	// Review rejects some ads, so that an appeal has a subject; the review RNG
	// is seeded alike on both shards.
	const rejectRate = 0.3
	f := launch(t, 2, both(durable(t), func(cfg *chaos.FleetConfig) { cfg.Platform = platformCfg(rejectRate) }))
	client := f.Client()
	// A day before the outage gives each shard delivery tallies of its own.
	delivered := setupAccount(t, client, 2)
	var active []string
	for _, id := range delivered {
		if ad, err := client.GetAd(ctx, id); err != nil {
			t.Fatal(err)
		} else if ad.Status == "ACTIVE" {
			active = append(active, id)
		}
	}
	if len(active) == 0 {
		t.Fatalf("review rejected both pre-outage ads; pick another rate")
	}
	if err := client.Deliver(ctx, active, 9650); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)

	aud, err := client.CreateAudience(ctx, "transfer-aud", worldHash[:400])
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "transfer-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	// Appeals go on until one leaves its ad rejected and one grants it.
	var kept, granted *marketing.AdResponse
	for i := 0; (kept == nil || granted == nil) && i < 40; i++ {
		ad, err := client.CreateAd(ctx, relayedAd(cmp.ID, aud.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status != "REJECTED" {
			continue
		}
		appealed, err := client.AppealAd(ctx, ad.ID)
		if err != nil {
			t.Fatal(err)
		}
		if appealed.Status == "REJECTED" {
			kept = appealed
		} else {
			granted = appealed
		}
	}
	if kept == nil || granted == nil {
		t.Fatalf("40 ads at reject rate %v saw no appeal refused or none granted (%v, %v); pick another rate", rejectRate, kept, granted)
	}

	// The shard comes back from its WAL with nothing of the outage; its
	// delivery tallies are read before the supervision pass rejoins it.
	if err := f.Relaunch(1); err != nil {
		t.Fatal(err)
	}
	shards := []*marketing.Client{shardClient(t, f, 0), shardClient(t, f, 1)}
	stats := func() string {
		var st platform.State
		if err := shards[1].Get(ctx, "/debug/state", &st); err != nil {
			t.Fatal(err)
		}
		return string(mustJSON(t, st.Stats))
	}
	ownStats := stats()
	if ownStats == "null" {
		t.Fatal("shard 1 recovered no delivery tallies: the test proves nothing about keeping them")
	}
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("rejoined shard state %v, want healthy", got)
	}

	replicated := func(shard int) []byte {
		raw, err := shards[shard].Replicated(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := replicated(0)
	if got := replicated(1); !bytes.Equal(got, want) {
		t.Errorf("shard 1's replicated half after the transfer is not the reference's:\n got %.300s\nwant %.300s", got, want)
	}
	if got := stats(); got != ownStats {
		t.Errorf("the transfer moved shard 1's delivery tallies:\n got %.300s\nwant %.300s", got, ownStats)
	}
	var draws [2]int
	for i, sc := range shards {
		for _, appealed := range []*marketing.AdResponse{kept, granted} {
			ad, err := sc.GetAd(ctx, appealed.ID)
			if err != nil || ad.Status != appealed.Status {
				t.Errorf("shard %d: appealed ad %+v, %v; the fleet answered %s", i, ad, err, appealed.Status)
			}
		}
		inv, err := sc.Inventory(ctx)
		if err != nil {
			t.Fatal(err)
		}
		draws[i] = inv.ReviewDraws
	}
	if draws[0] != draws[1] {
		t.Errorf("review cursors %d and %d after the transfer, want equal", draws[0], draws[1])
	}

	// Durable: with no mutation since the install, a kill and relaunch
	// recover the installed bytes — from the snapshot the install wrote, as
	// the shard's WAL holds nothing of the outage.
	if err := f.Relaunch(1); err != nil {
		t.Fatal(err)
	}
	if got := replicated(1); !bytes.Equal(got, want) {
		t.Errorf("shard 1 recovered other bytes than it installed:\n got %.300s\nwant %.300s", got, want)
	}
	if got := stats(); got != ownStats {
		t.Errorf("shard 1 recovered other delivery tallies than it kept:\n got %.300s\nwant %.300s", got, ownStats)
	}
}

// TestDivergedShardRejoinsByTransfer: a shard that executed a create the
// fleet never relayed — as one does that reads, after its install, a request
// under a key it never saw — answers the next create with another ID. The
// outcome check refuses that create as a divergence and quarantines the
// shard; the next supervision pass rejoins it by state transfer, which
// drops what only it executed, and the caller's retry under its key gets
// the reference's answer.
func TestDivergedShardRejoinsByTransfer(t *testing.T) {
	ctx := context.Background()
	worldHash := worldHash(t)
	f := launch(t, 2, nil)
	router, err := coordinator.NewRouter(f.Coord, f.Reg)
	if err != nil {
		t.Fatal(err)
	}
	url := router.Handler()
	audience := func(name string) []byte {
		return mustJSON(t, marketing.CreateAudienceRequest{Name: name, PIIHashes: worldHash[:100]})
	}
	if status, answer := rawPost(t, url, "/v1/customaudiences", "first", audience("first")); status != 201 {
		t.Fatalf("first create: %d %s", status, answer)
	}
	if _, err := shardClient(t, f, 1).CreateAudience(ctx, "unrelayed", worldHash[:50]); err != nil {
		t.Fatal(err)
	}

	status, answer := rawPost(t, url, "/v1/customaudiences", "second", audience("second"))
	if status != http.StatusBadGateway || !strings.Contains(answer, "create audience diverged on shard1") {
		t.Fatalf("create after shard 1 went its own way: %d %s, want a 502 divergence", status, answer)
	}
	if state(f, 1) != coordinator.Down {
		t.Fatalf("diverged shard state %v, want down (quarantined)", state(f, 1))
	}
	status, retried := rawPost(t, url, "/v1/customaudiences", "second", audience("second"))
	if status != 201 || !strings.Contains(retried, `"id":"ca-2"`) {
		t.Fatalf("retry under the same key: %d %s, want the reference's ca-2", status, retried)
	}

	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("diverged shard state %v after a supervision pass, want healthy", got)
	}
	status, third := rawPost(t, url, "/v1/customaudiences", "third", audience("third"))
	if status != 201 || !strings.Contains(third, `"id":"ca-3"`) {
		t.Fatalf("create over the healed fleet: %d %s, want ca-3", status, third)
	}
	if inv, err := f.Coord.Inventory(ctx); err != nil || inv.Audiences != 3 {
		t.Fatalf("inventory over the healed fleet: %+v, %v (want 3 audiences on both shards)", inv, err)
	}
}
