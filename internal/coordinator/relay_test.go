package coordinator

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
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/supervisor"
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

// rawPost sends one request body to url under an idempotency key ("" for
// none) and returns the status and the response body.
func rawPost(t *testing.T, url, key string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(marketing.IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(payload)
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
	world(t)
	caps := []*capture{{}, {}}
	backends := []string{newBackend(t, caps[0].wrap), newBackend(t, caps[1].wrap)}
	coord, _, _ := fleetOver(t, backends, nil)
	const limit = 256 << 10
	serve := func() string {
		router, err := NewRouter(coord, coord.reg)
		if err != nil {
			t.Fatal(err)
		}
		router.limits.MaxBodyBytes = limit
		ts := httptest.NewServer(router.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
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
		status, answer := rawPost(t, url+c.path, key, c.body)
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
	_, first := rawPost(t, url+"/v1/customaudiences", "lost-response", body)
	for name, via := range map[string]string{"same router": url, "fresh router": serve()} {
		status, again := rawPost(t, via+"/v1/customaudiences", "lost-response", body)
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
	gate := &downGate{}
	caps := []*capture{{}, {}}
	// Review rejects some ads, so that an appeal has a subject; the review RNG
	// is seeded alike on both shards.
	const rejectRate = 0.3
	backends := []string{
		serveBackend(t, newReviewingPlatform(t, rejectRate), caps[0].wrap),
		serveBackend(t, newReviewingPlatform(t, rejectRate), func(h http.Handler) http.Handler { return gate.wrap(caps[1].wrap(h)) }),
	}
	coord, client, _ := fleetOver(t, backends, nil)
	sup := supervisor.New(coord, nil, supervisor.Config{ProbeTimeout: time.Second}, coord.reg)
	gate.set(true)
	stepUntilDown(t, sup, coord, 1)

	aud, err := client.CreateAudience(ctx, "journal-aud", worldHash[:400])
	if err != nil {
		t.Fatal(err)
	}
	// The campaign goes in below the router, from a buffer this test owns
	// and scribbles over once mutate has returned.
	buf := []byte(`{"name":"journal-cmp","objective":"TRAFFIC"}`)
	campaignBody := bytes.Clone(buf)
	payload, err := coord.mutate(ctx, mutation{kind: kindCampaign, key: "own-buffer", path: "/v1/campaigns", body: buf})
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
	var rejected *marketing.AdResponse
	ads := 0
	for ; rejected == nil && ads < 20; ads++ {
		ad, err := client.CreateAd(ctx, relayedAd(cmp.ID, aud.ID, ads))
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status == "REJECTED" {
			rejected = ad
		}
	}
	if rejected == nil {
		t.Fatal("review rejected none of 20 ads; nothing to appeal")
	}
	appealed, err := client.AppealAd(ctx, rejected.ID)
	if err != nil {
		t.Fatal(err)
	}
	if appealed.Status != "ACTIVE" {
		// An appeal that changes nothing is probe-skipped at replay, which
		// would leave the appeal route out of this test.
		t.Fatalf("the appeal left ad %s %s; pick a reject rate at which the seeded review grants it", appealed.ID, appealed.Status)
	}

	// The journal holds what shard 0 executed: same path, key and bytes, in
	// order, each with the outcome the caller was given.
	executed := caps[0].take()
	entries := coord.journal.entries
	if len(entries) != 3+ads || len(executed) != len(entries) {
		t.Fatalf("%d journal entries, %d requests executed, want %d of each", len(entries), len(executed), 3+ads)
	}
	for i, e := range entries {
		if e.path != executed[i].path || e.key != executed[i].key || !bytes.Equal(e.body, executed[i].body) {
			t.Errorf("entry %d (%s %s): not the request shard 0 executed (%s)", i, e.kind, e.path, executed[i].path)
		}
	}
	if got := entries[1]; got.kind != kindCampaign || !bytes.Equal(got.body, campaignBody) {
		t.Errorf("journaled campaign body %q follows the caller's buffer, want %q", got.body, campaignBody)
	}
	first, last := entries[0], entries[len(entries)-1]
	if want := (outcome{ID: aud.ID, MatchedSize: aud.MatchedSize}); first.kind != kindAudience || first.want != want {
		t.Errorf("audience entry %s wants %+v, the caller got %+v", first.kind, first.want, want)
	}
	if want := (outcome{ID: appealed.ID, Status: appealed.Status}); last.kind != kindAppeal || last.adID != rejected.ID || last.want != want {
		t.Errorf("appeal entry %s of %q wants %+v, the caller got %+v", last.kind, last.adID, last.want, want)
	}

	gate.set(false)
	sup.Step(ctx)
	if !coord.isAdmitted(1) {
		t.Fatalf("revived shard not readmitted (state %v)", coord.Health().State(1))
	}
	replayed := caps[1].take()
	if len(replayed) != len(executed) {
		t.Fatalf("shard 1 was replayed %d requests, want %d", len(replayed), len(executed))
	}
	for i := range executed {
		if replayed[i].path != executed[i].path || replayed[i].key != executed[i].key || !bytes.Equal(replayed[i].body, executed[i].body) {
			t.Errorf("replay %d (%s): shard 1 received other bytes or another key than shard 0 executed", i, executed[i].path)
		}
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters[MetricJournalReplayed]; got != int64(len(executed)) || snap.Gauges[MetricJournalDepth] != 0 {
		t.Errorf("replayed %d entries with %d left, want %d and 0", got, snap.Gauges[MetricJournalDepth], len(executed))
	}
	var digests [2]string
	for i, sc := range coord.shards {
		st, err := sc.client.ShardStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = st.StateDigest
		ad, err := sc.client.GetAd(ctx, rejected.ID)
		if err != nil || ad.Status != appealed.Status {
			t.Errorf("%s: appealed ad %+v, %v; the fleet answered %s", sc.label, ad, err, appealed.Status)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("state digests differ after catch-up: %s vs %s", digests[0], digests[1])
	}
}
