package coordinator_test

// End-to-end tests over the simulated fleet (internal/chaos.Fleet): shards
// that are each a full node.Stack — exactly what cmd/adplatform serves —
// behind the router, in one process. The determinism claims proved
// in-process by internal/platform's delivery_session tests are re-proved
// here across the wire format, plus the failure paths only the coordinator
// owns: whole-day restart after a shard crash and partial-commit replay after
// a failed finish fan-out. The tests sit outside the package because the
// fleet imports it; export_test.go holds the few seams they need.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// The shared world: every shard of every fleet (and the single-process
// reference, a 1-shard fleet addressed past its router) trains over the same
// population, like shard processes launched with the same -seed. Built once —
// world generation dominates test time.
var (
	worldCfg = node.WorldConfig{Seed: 700, Voters: 6000, LogRows: 2500}
	world    = sync.OnceValues(func() (*node.World, error) { return worldCfg.Build(worldCfg.PlatformConfig()) })
)

// platformCfg is the shards' platform configuration with ad review rejecting
// at the given rate (from the same seeded review RNG on every shard).
func platformCfg(rejectProb float64) platform.Config {
	cfg := worldCfg.PlatformConfig()
	cfg.ReviewRejectProb = rejectProb
	return cfg
}

// launch stands a fleet of n shards up over the shared world; mod adjusts
// its configuration first. Review rejects nothing unless mod says otherwise.
func launch(t testing.TB, n int, mod func(*chaos.FleetConfig)) *chaos.Fleet {
	t.Helper()
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.FleetConfig{World: w, Platform: platformCfg(0), Shards: n}
	if mod != nil {
		mod(&cfg)
	}
	f, err := chaos.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("closing the fleet: %v", err)
		}
	})
	return f
}

// singleProcess is the reference: one adplatform, addressed directly.
func singleProcess(t testing.TB, mod func(*chaos.FleetConfig)) *marketing.Client {
	t.Helper()
	return shardClient(t, launch(t, 1, mod), 0)
}

func shardClient(t testing.TB, f *chaos.Fleet, shard int) *marketing.Client {
	t.Helper()
	c, err := f.ShardClient(shard)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wrapShard is a FleetConfig.Wrap that stands wrap in front of one shard.
func wrapShard(shard int, wrap func(http.Handler) http.Handler) func(*chaos.FleetConfig) {
	return func(cfg *chaos.FleetConfig) {
		cfg.Wrap = func(i int, h http.Handler) http.Handler {
			if i == shard {
				return wrap(h)
			}
			return h
		}
	}
}

// worldHash is the audience upload: the head of the FL registry, hashed.
func worldHash(t testing.TB) []string {
	t.Helper()
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	return node.PIIHashes(w.FL.Entries[:2000])
}

// setupAccount uploads the audience, creates a campaign, and creates nAds
// identically-specced ads through the given API client (router or direct
// backend — same call sequence, so ID allocation stays aligned).
func setupAccount(t *testing.T, client *marketing.Client, nAds int) []string {
	t.Helper()
	ctx := context.Background()
	ca, err := client.CreateAudience(ctx, "e2e-aud", worldHash(t))
	if err != nil {
		t.Fatal(err)
	}
	if ca.MatchedSize == 0 {
		t.Fatal("audience matched no users")
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "e2e-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	return createAdSet(t, client, cmp.ID, ca.ID, nAds)
}

// createAdSet creates nAds ads with deterministic per-index specs on an
// existing campaign/audience.
func createAdSet(t *testing.T, client *marketing.Client, campaignID, audienceID string, nAds int) []string {
	t.Helper()
	ctx := context.Background()
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	ids := make([]string, 0, nAds)
	for i := 0; i < nAds; i++ {
		img := image.FromProfile(demo.Profile{
			Gender: genders[i%2],
			Race:   races[(i/2)%2],
			Age:    demo.ImpliedAdult,
		})
		ad, err := client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID: campaignID,
			Creative: marketing.WireCreative{
				Image:    marketing.WireImageFrom(img),
				Headline: fmt.Sprintf("e2e-ad-%d", i),
				LinkURL:  "https://example.test/offer",
			},
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{audienceID}},
			DailyBudgetCents: 200 + 50*i,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status != "ACTIVE" {
			t.Fatalf("ad %d status %q", i, ad.Status)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// insightsDigest hashes the full wire-level delivery report of every ad —
// the plain insights response plus the full age×gender×region breakdown —
// with ad IDs normalized to their index so runs with different allocation
// histories stay comparable.
func insightsDigest(t *testing.T, client *marketing.Client, ids []string) string {
	t.Helper()
	ctx := context.Background()
	type adReport struct {
		Full  *marketing.InsightsResponse `json:"full"`
		Cells *marketing.InsightsResponse `json:"cells"`
	}
	reports := make([]adReport, 0, len(ids))
	for i, id := range ids {
		full, err := client.Insights(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := client.InsightsBreakdown(ctx, id, "age", "gender", "region")
		if err != nil {
			t.Fatal(err)
		}
		full.AdID = fmt.Sprintf("ad#%d", i)
		cells.AdID = full.AdID
		reports = append(reports, adReport{Full: full, Cells: cells})
	}
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// referenceDigest is what one adplatform process reports for nAds ads
// delivered with the in-process engine at the given worker count.
func referenceDigest(t *testing.T, nAds int, seed int64, workers int, mod func(*chaos.FleetConfig)) string {
	t.Helper()
	ref := singleProcess(t, mod)
	ids := setupAccount(t, ref, nAds)
	if err := ref.DeliverWorkers(context.Background(), ids, seed, workers); err != nil {
		t.Fatal(err)
	}
	return insightsDigest(t, ref, ids)
}

// TestRouterMatchesSingleProcess is the cross-process determinism claim over
// the wire format: for 1, 2, and 4 shards, a router-coordinated delivery day
// produces, through the same wire-level insights surface, exactly what one
// adplatform process produces with the in-process engine at the same worker
// count. The 1-shard case pins the router to the sequential oracle (and
// thereby to the historical goldens, which the platform tests tie to that
// engine).
func TestRouterMatchesSingleProcess(t *testing.T) {
	const nAds = 3
	const seed = 9100
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want := referenceDigest(t, nAds, seed, shards, nil)
			client := launch(t, shards, nil).Client()
			ids := setupAccount(t, client, nAds)
			if err := client.Deliver(context.Background(), ids, seed); err != nil {
				t.Fatal(err)
			}
			if got := insightsDigest(t, client, ids); got != want {
				t.Errorf("%d-shard router day diverged from single-process workers=%d:\n got %s\nwant %s", shards, shards, got, want)
			}
		})
	}
}

// TestRouterRepeatDeterminism: two delivery days over the same fleet with
// identically-specced fresh ad sets and the same seed are byte-identical —
// the self-determinism half of the acceptance criteria (re-running the whole
// fleet from scratch is the CI smoke's job).
func TestRouterRepeatDeterminism(t *testing.T) {
	const seed = 9200
	client := launch(t, 2, nil).Client()
	ctx := context.Background()
	ca, err := client.CreateAudience(ctx, "rep-aud", worldHash(t))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "rep-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for run := 0; run < 2; run++ {
		ids := createAdSet(t, client, cmp.ID, ca.ID, 3)
		if err := client.Deliver(ctx, ids, seed); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, insightsDigest(t, client, ids))
	}
	if digests[0] != digests[1] {
		t.Errorf("repeated router day diverged:\n run0 %s\n run1 %s", digests[0], digests[1])
	}
}

// replayCacheSizes reads each shard's replay-cache gauge from its /metrics.
func replayCacheSizes(t *testing.T, f *chaos.Fleet) []int64 {
	t.Helper()
	sizes := make([]int64, f.Coord.Shards())
	for i := range sizes {
		var snap obs.Snapshot
		if err := shardClient(t, f, i).Get(context.Background(), "/metrics", &snap); err != nil {
			t.Fatal(err)
		}
		sizes[i] = snap.Gauges[marketing.MetricIdempotentEntries]
	}
	return sizes
}

// TestDayLeavesReplayCache: begin, tick and abort are idempotent by
// protocol and bypass the shards' replay cache, so a coordinated day — a
// begin and 48 ticks on each shard — adds to it only the entry of finish,
// the one durable step.
func TestDayLeavesReplayCache(t *testing.T) {
	f := launch(t, 2, nil)
	client := f.Client()
	ids := setupAccount(t, client, 2)
	before := replayCacheSizes(t, f)
	for i, n := range before {
		if n < 4 {
			t.Fatalf("shard %d caches %d responses after four creates", i, n)
		}
	}
	if err := client.Deliver(context.Background(), ids, 9250); err != nil {
		t.Fatal(err)
	}
	after := replayCacheSizes(t, f)
	for i := range after {
		if after[i] != before[i]+1 {
			t.Errorf("shard %d: a coordinated day took the replay cache from %d to %d entries, want %d (finish's)", i, before[i], after[i], before[i]+1)
		}
	}
}

// faultGate injects one-shot failures into a shard's delivery routes,
// emulating crashes from the coordinator's point of view that no chaos
// disturbance lands precisely enough to produce.
type faultGate struct {
	mu          sync.Mutex
	tickFails   int // remaining ticks answered 409 (as a restarted shard would)
	finishFails int // remaining finishes answered 500 (shard dies in the commit fan-out)
}

func (g *faultGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		switch {
		case r.URL.Path == "/v1/shard/delivery/tick" && g.tickFails > 0:
			g.tickFails--
			g.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"injected: shard restarted, delivery session lost"}`)
			return
		case r.URL.Path == "/v1/shard/delivery/finish" && g.finishFails > 0:
			g.finishFails--
			g.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"injected: shard crashed during commit"}`)
			return
		}
		g.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// TestRouterDayRestartAfterShardCrash: a shard that loses its session
// mid-day (409 on a tick) forces the coordinator to abort and re-run the
// whole day, and the re-run still matches the unfaulted single-process
// reference bit for bit.
func TestRouterDayRestartAfterShardCrash(t *testing.T) {
	const nAds = 2
	const seed = 9300
	want := referenceDigest(t, nAds, seed, 2, nil)

	gate := &faultGate{tickFails: 1}
	f := launch(t, 2, wrapShard(1, gate.wrap))
	client := f.Client()
	ids := setupAccount(t, client, nAds)
	if err := client.Deliver(context.Background(), ids, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("post-restart day diverged from reference:\n got %s\nwant %s", got, want)
	}
	if restarts := f.Reg.Snapshot().Counters[coordinator.MetricDayRestarts]; restarts < 1 {
		t.Errorf("restart counter = %d, want >= 1", restarts)
	}
}

// TestRouterPartialCommitReplay: one shard commits its day durably while the
// other fails every finish attempt — the asymmetric window. The next attempt
// must recognize the partial commit and replay the recorded day on the
// straggler only, converging on the reference output (a full re-run would
// 400 on the already-completed shard).
func TestRouterPartialCommitReplay(t *testing.T) {
	const nAds = 2
	const seed = 9400
	want := referenceDigest(t, nAds, seed, 2, nil)

	// With two tries a call, two injected 500s exhaust the finish call
	// entirely and fail the first day attempt after shard 0 has already
	// committed.
	gate := &faultGate{finishFails: 2}
	f := launch(t, 2, wrapShard(1, gate.wrap))
	f.Coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 2, BaseDelay: chaos.ShardRetry.BaseDelay, MaxDelay: chaos.ShardRetry.MaxDelay})
	client := f.Client()
	ids := setupAccount(t, client, nAds)
	if err := client.Deliver(context.Background(), ids, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("post-replay day diverged from reference:\n got %s\nwant %s", got, want)
	}
	if restarts := f.Reg.Snapshot().Counters[coordinator.MetricDayRestarts]; restarts < 1 {
		t.Errorf("restart counter = %d, want >= 1", restarts)
	}
}

// TestRouterCRUDFanOutAndGuards covers the router's non-delivery surface:
// topology, merged inventory, divergence-free CRUD across shards, appeal
// pass-through, and the deliver-workers guard.
func TestRouterCRUDFanOutAndGuards(t *testing.T) {
	f := launch(t, 2, nil)
	coord, client := f.Coord, f.Client()
	ctx := context.Background()
	ids := setupAccount(t, client, 2)

	if got := coord.Shards(); got != 2 {
		t.Fatalf("Shards() = %d", got)
	}
	ad, err := client.GetAd(ctx, ids[0])
	if err != nil || ad.Status != "ACTIVE" {
		t.Fatalf("GetAd via router: %+v, %v", ad, err)
	}
	inv, err := coord.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Ads != 2 || inv.Audiences != 1 || inv.Campaigns != 1 {
		t.Fatalf("merged inventory %+v", inv)
	}
	// Workers guard: explicit worker counts must match the topology.
	if err := client.DeliverWorkers(ctx, ids, 1, 3); err == nil {
		t.Error("workers=3 against a 2-shard fleet: want error")
	}
	if err := client.DeliverWorkers(ctx, ids, 9500, 2); err != nil {
		t.Errorf("workers=2 against a 2-shard fleet: %v", err)
	}
	// Appeal pass-through: appealing an ad that review did not reject is a
	// client error from every shard, surfaced with the backend's own status.
	if _, err := client.AppealAd(ctx, ids[0]); err == nil {
		t.Error("appealing an active ad: want error")
	}
}
