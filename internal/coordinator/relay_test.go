package coordinator_test

// The relay contract of the replicated CRUD routes: the router reads a body
// once and never decodes it, every admitted shard is handed the same bytes
// under the caller's idempotency key, the shards alone validate, and a
// quarantined shard later catches up from the journal's {path, body} entries.

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

// TestJournalReplaysRelayedBytes: a quarantined shard catches up on an
// audience, a campaign, an ad and an appeal from {path, body} entries — the
// very bytes and keys the admitted shard executed — reproduces every ID,
// status and matched size, and passes the state-digest gate. The journal's
// body is its own copy, not the caller's buffer.
func TestJournalReplaysRelayedBytes(t *testing.T) {
	ctx := context.Background()
	worldHash := worldHash(t)
	caps := []*capture{{}, {}}
	// Review rejects some ads, so that an appeal has a subject; the review RNG
	// is seeded alike on both shards.
	const rejectRate = 0.3
	f := launch(t, 2, both(both(durable(t), capturing(caps)), func(cfg *chaos.FleetConfig) { cfg.Platform = platformCfg(rejectRate) }))
	coord, client := f.Coord, f.Client()
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)
	caps[0].take() // the probes and fan-outs that found shard 1 dead carry no mutation, but start clean

	aud, err := client.CreateAudience(ctx, "journal-aud", worldHash[:400])
	if err != nil {
		t.Fatal(err)
	}
	// The campaign goes in below the router, from a buffer this test owns
	// and scribbles over once mutate has returned.
	buf := []byte(`{"name":"journal-cmp","objective":"TRAFFIC"}`)
	campaignBody := bytes.Clone(buf)
	payload, err := coord.Mutate(ctx, coordinator.KindCampaign, "own-buffer", "/v1/campaigns", buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	var cmp marketing.CreateCampaignResponse
	if err := json.Unmarshal(payload, &cmp); err != nil || cmp.ID == "" {
		t.Fatalf("campaign answer %s: %v", payload, err)
	}
	// Appeals go on until one leaves its ad rejected and one grants it: the
	// first is the entry whose replay a status probe used to skip, leaving
	// the recovered shard's review stream a draw behind.
	var kept, granted *marketing.AdResponse
	ads, appeals := 0, 0
	for ; (kept == nil || granted == nil) && ads < 40; ads++ {
		ad, err := client.CreateAd(ctx, relayedAd(cmp.ID, aud.ID, ads))
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
		appeals++
		if appealed.Status == "REJECTED" {
			kept = appealed
		} else {
			granted = appealed
		}
	}
	if kept == nil || granted == nil {
		t.Fatalf("40 ads at reject rate %v saw no appeal refused or none granted (%v, %v); pick another rate", rejectRate, kept, granted)
	}

	// The journal holds what shard 0 executed: same path, key and bytes, in
	// order, each with the outcome the caller was given.
	executed := caps[0].take()
	entries := coord.Journaled()
	if len(entries) != 2+ads+appeals || len(executed) != len(entries) {
		t.Fatalf("%d journal entries, %d requests executed, want %d of each", len(entries), len(executed), 2+ads+appeals)
	}
	for i, e := range entries {
		if e.Path != executed[i].path || e.Key != executed[i].key || !bytes.Equal(e.Body, executed[i].body) {
			t.Errorf("entry %d (%s %s): not the request shard 0 executed (%s)", i, e.Kind, e.Path, executed[i].path)
		}
	}
	if got := entries[1]; got.Kind != coordinator.KindCampaign || !bytes.Equal(got.Body, campaignBody) {
		t.Errorf("journaled campaign body %q follows the caller's buffer, want %q", got.Body, campaignBody)
	}
	first, last := entries[0], entries[len(entries)-1]
	if want := (coordinator.Outcome{ID: aud.ID, MatchedSize: aud.MatchedSize}); first.Kind != coordinator.KindAudience || first.Want != want {
		t.Errorf("audience entry %s wants %+v, the caller got %+v", first.Kind, first.Want, want)
	}
	if last.Kind != coordinator.KindAppeal || !strings.HasSuffix(last.Path, "/appeal") {
		t.Errorf("last entry is %s %s, want the last appeal", last.Kind, last.Path)
	}

	// The shard comes back from its WAL with nothing of the outage, and every
	// entry — the appeal that changed nothing included — is replayed to it.
	revive(t, f, 1)
	replayed := caps[1].take()
	if len(replayed) != len(executed) {
		t.Fatalf("shard 1 was replayed %d requests, want %d", len(replayed), len(executed))
	}
	for i := range executed {
		if replayed[i].path != executed[i].path || replayed[i].key != executed[i].key || !bytes.Equal(replayed[i].body, executed[i].body) {
			t.Errorf("replay %d (%s): shard 1 received other bytes or another key than shard 0 executed", i, executed[i].path)
		}
	}
	snap := f.Reg.Snapshot()
	if got := snap.Counters[coordinator.MetricJournalReplayed]; got != int64(len(executed)) || snap.Gauges[coordinator.MetricJournalDepth] != 0 {
		t.Errorf("replayed %d entries with %d left, want %d and 0", got, snap.Gauges[coordinator.MetricJournalDepth], len(executed))
	}
	var status [2]*marketing.ShardStatusResponse
	for i := range status {
		sc := shardClient(t, f, i)
		if status[i], err = sc.ShardStatus(ctx); err != nil {
			t.Fatal(err)
		}
		for _, appealed := range []*marketing.AdResponse{kept, granted} {
			ad, err := sc.GetAd(ctx, appealed.ID)
			if err != nil || ad.Status != appealed.Status {
				t.Errorf("shard %d: appealed ad %+v, %v; the fleet answered %s", i, ad, err, appealed.Status)
			}
		}
	}
	if status[0].StateDigest != status[1].StateDigest {
		t.Errorf("state digests differ after catch-up: %s vs %s", status[0].StateDigest, status[1].StateDigest)
	}
	// The digest covers the review cursor: one draw an ad, one an appeal.
	if got := status[1].Inventory.ReviewDraws; got != ads+appeals || got != status[0].Inventory.ReviewDraws {
		t.Errorf("review cursors %d and %d after catch-up, want %d on both", status[0].Inventory.ReviewDraws, got, ads+appeals)
	}
}
