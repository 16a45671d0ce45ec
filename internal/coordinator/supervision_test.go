package coordinator_test

// Supervision-layer tests over the simulated fleet: quarantine, journal
// catch-up, digest-gated rejoin, journal overflow, the typed degradation
// errors, and the no-flap property under injected 5xx. A shard dies here the
// way it does under the chaos soak — Fleet.Kill drops its serving stack and
// the unflushed tail of its WAL, Fleet.Relaunch trains a fresh platform and
// recovers the account from disk — so what a restart loses (the delivery
// session, the idempotency cache) is lost in these tests too.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

// durable gives every shard a WAL directory, so a killed one comes back
// with its account.
func durable(t testing.TB) func(*chaos.FleetConfig) {
	return func(cfg *chaos.FleetConfig) { cfg.Dir = t.TempDir() }
}

// both applies two configuration changes.
func both(a, b func(*chaos.FleetConfig)) func(*chaos.FleetConfig) {
	return func(cfg *chaos.FleetConfig) { a(cfg); b(cfg) }
}

// stepUntilDown drives supervisor passes until the shard is quarantined. The
// passes sleep on nothing, so the fleet's clock stands still and the
// supervisor's relaunch grace never runs out: the test decides when the shard
// comes back.
func stepUntilDown(t *testing.T, f *chaos.Fleet, shard int) {
	t.Helper()
	for i := 0; i < 10; i++ {
		f.Sup.Step(context.Background())
		if f.Coord.Health().State(shard) == supervisor.Down {
			return
		}
	}
	t.Fatalf("shard %d never quarantined (state %v)", shard, f.Coord.Health().State(shard))
}

// revive relaunches a dead shard and gives the supervisor the one pass that
// must walk it through replay and the digest gate back to healthy.
func revive(t *testing.T, f *chaos.Fleet, shard int) {
	t.Helper()
	if err := f.Relaunch(shard); err != nil {
		t.Fatal(err)
	}
	f.Sup.Step(context.Background())
	if got := f.Coord.Health().State(shard); got != supervisor.Healthy {
		t.Fatalf("revived shard state %v, want healthy", got)
	}
}

// The tentpole end to end: a shard dies, the supervisor quarantines it, CRUD
// keeps flowing (journaled), insights degrade with a typed 503, the shard
// comes back, rejoin replays the journal gap and passes the digest gate, and
// a delivery day over the healed fleet is byte-identical to an undisturbed
// fleet's.
func TestShardResurrectionWithJournalCatchup(t *testing.T) {
	const nAds = 2
	const seed = 9600
	ctx := context.Background()
	hashes := worldHash(t)[:500]

	// Undisturbed reference fleet: same call sequence, no outage.
	refClient := launch(t, 2, nil).Client()
	refIDs := setupAccount(t, refClient, nAds)
	if err := refClient.Deliver(ctx, refIDs, seed-1); err != nil {
		t.Fatal(err)
	}
	refAud, err := refClient.CreateAudience(ctx, "out-aud", hashes)
	if err != nil {
		t.Fatal(err)
	}
	refCmp, err := refClient.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "out-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	refNew := createAdSet(t, refClient, refCmp.ID, refAud.ID, 2)
	refIDs = append(refIDs, refNew...)
	// Delivery is one-shot per ad: the second day runs only the ads the
	// first day did not consume.
	if err := refClient.Deliver(ctx, refNew, seed); err != nil {
		t.Fatal(err)
	}
	want := insightsDigest(t, refClient, refIDs)

	// Disturbed fleet: shard 1 dies after account setup.
	f := launch(t, 2, durable(t))
	coord, client, reg := f.Coord, f.Client(), f.Reg
	ids := setupAccount(t, client, nAds)
	// Commit a day BEFORE the outage: a coordinated day leaves each shard
	// with the tallies of its own user partition — divergent by design —
	// which the rejoin digest gate must ignore (it hashes only the
	// replicated account surface, or no shard could ever rejoin after a
	// fleet's first committed day).
	if err := client.Deliver(ctx, ids, seed-1); err != nil {
		t.Fatal(err)
	}

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)

	// CRUD keeps flowing against the journal: a full audience + campaign +
	// 2 ads land while shard 1 is a corpse.
	aud, err := client.CreateAudience(ctx, "out-aud", hashes)
	if err != nil {
		t.Fatalf("audience create during outage: %v", err)
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "out-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatalf("campaign create during outage: %v", err)
	}
	outageIDs := createAdSet(t, client, cmp.ID, aud.ID, 2)
	ids = append(ids, outageIDs...)
	snap := reg.Snapshot()
	if got := snap.Counters[coordinator.MetricJournalAppends]; got != 4 {
		t.Errorf("journal appends during outage = %d, want 4", got)
	}
	if got := snap.Gauges[coordinator.MetricJournalDepth]; got != 4 {
		t.Errorf("journal depth during outage = %d, want 4", got)
	}

	// Reads stay up off the admitted shard; partitioned insights degrade
	// with the typed 503.
	if ad, err := client.GetAd(ctx, outageIDs[0]); err != nil || ad.Status != "ACTIVE" {
		t.Fatalf("GetAd during outage: %+v, %v", ad, err)
	}
	if _, err := client.Insights(ctx, ids[0]); err == nil {
		t.Fatal("insights during outage: want 503")
	} else {
		var apiErr *marketing.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("insights during outage: %v, want 503", err)
		}
	}

	// Resurrection: the shard recovers its WAL — account and committed day,
	// no idempotency cache — and one supervisor pass marks it recovering and
	// walks it through replay + digest gate back to admitted.
	revive(t, f, 1)
	snap = reg.Snapshot()
	if got := snap.Counters[coordinator.MetricJournalReplayed]; got != 4 {
		t.Errorf("journal entries replayed = %d, want 4 (zero acked writes lost)", got)
	}
	if got := snap.Gauges[coordinator.MetricJournalDepth]; got != 0 {
		t.Errorf("journal depth after rejoin = %d, want 0", got)
	}
	if snap.Counters[coordinator.MetricRejoins] < 1 {
		t.Errorf("rejoin counter = %d, want >= 1", snap.Counters[coordinator.MetricRejoins])
	}
	if snap.Histograms[coordinator.MetricJournalReplayLatency].Count == 0 {
		t.Errorf("journal replay latency never observed")
	}
	if snap.Histograms[supervisor.MetricMTTR].Count == 0 {
		t.Errorf("MTTR never observed")
	}

	// Cross-shard convergence and determinism: the healed fleet's inventory
	// agrees, and a day over it is byte-identical to the undisturbed fleet.
	inv, err := coord.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Ads != 4 || inv.Audiences != 2 || inv.Campaigns != 2 {
		t.Fatalf("healed inventory %+v", inv)
	}
	// Ten 503s in a row opened the client's breaker; its cooldown is virtual.
	f.Clock.Sleep(marketing.BreakerCooldown)
	if err := client.Deliver(ctx, outageIDs, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("healed-fleet day diverged from undisturbed fleet:\n got %s\nwant %s", got, want)
	}
}

// Journal overflow: with the journal at capacity during an outage, new
// mutations are refused with 503 + Retry-After — and the SAME idempotent
// request succeeds cleanly after the fleet heals (the refusal happens before
// any shard executes, so there is no half-applied state to reconcile).
func TestJournalOverflow503ComposesWithRetry(t *testing.T) {
	ctx := context.Background()
	f := launch(t, 2, both(durable(t), func(cfg *chaos.FleetConfig) { cfg.Coordinator.JournalCap = 1 }))
	coord, client := f.Coord, f.Client()
	setupAccount(t, client, 1)

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)

	// First mutation journals; the journal is now full.
	if _, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "fits", Objective: "TRAFFIC"}); err != nil {
		t.Fatalf("first outage mutation: %v", err)
	}

	// Second mutation overflows: raw POST to inspect status and headers.
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, f.URL()+"/v1/campaigns",
			strings.NewReader(`{"name":"overflows","objective":"TRAFFIC"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(marketing.IdempotencyKeyHeader, "overflow-key-1")
		resp, err := f.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow response missing Retry-After")
	}
	if got := f.Reg.Snapshot().Counters[coordinator.MetricJournalRejects]; got < 1 {
		t.Errorf("journal reject counter = %d, want >= 1", got)
	}

	// Heal, then the client's idempotent retry (same key) goes through.
	revive(t, f, 1)
	resp = post()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-heal retry status %d, want 201", resp.StatusCode)
	}
	inv, err := coord.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Campaigns != 3 {
		t.Fatalf("campaigns after heal = %d, want 3 (no double-apply)", inv.Campaigns)
	}
}

// A delivery day that exhausts its attempt budget fails with the typed
// ErrDayExhausted (503 + Retry-After at the router), and the retry counter
// reflects the bounded loop.
func TestDeliverExhaustionTyped(t *testing.T) {
	ctx := context.Background()
	// Every tick on shard 1 answers 409 forever: each attempt aborts and
	// re-runs until the budget runs out.
	gate := &faultGate{tickFails: 1 << 20}
	f := launch(t, 2, both(wrapShard(1, gate.wrap), func(cfg *chaos.FleetConfig) { cfg.Coordinator.DayAttempts = 3 }))
	coord, client := f.Coord, f.Client()
	ids := setupAccount(t, client, 1)

	err := coord.Deliver(ctx, ids, 9700)
	if !errors.Is(err, coordinator.ErrDayExhausted) {
		t.Fatalf("exhausted day error = %v, want ErrDayExhausted", err)
	}
	snap := f.Reg.Snapshot()
	if got := snap.Counters[coordinator.MetricDayRetries]; got != 2 {
		t.Errorf("day retries = %d, want 2 (3 attempts)", got)
	}
	// The router maps it to a degradation 503.
	if err := client.Deliver(ctx, ids, 9700); err == nil {
		t.Fatal("router deliver after exhaustion: want error")
	} else {
		var apiErr *marketing.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("router deliver error %v, want 503", err)
		}
	}
}

// sessionActive asks a shard's own handler whether a day session is open.
func sessionActive(t *testing.T, shard http.Handler) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	shard.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shard/status", nil))
	var st marketing.ShardStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Errorf("shard status %d %s: %v", rec.Code, rec.Body, err)
	}
	return st.SessionActive
}

// An abandoned day attempt leaves no session behind. Shard 1 answers every
// tick 409, so each attempt fails mid-day with a session open on both
// backends; a leaked one would block RunDayWorkers there and the rejoin gate.
// BeginDay replaces a stale session silently, so the leak is looked for where
// it would still show: on each backend as a retry's begin arrives, and over
// the wire once Deliver has given up.
func TestAbandonedDayAttemptLeavesNoSession(t *testing.T) {
	ctx := context.Background()
	gate := &faultGate{tickFails: 1 << 20}
	var begins atomic.Int32
	f := launch(t, 2, func(cfg *chaos.FleetConfig) {
		cfg.Coordinator.DayAttempts = 3
		cfg.Wrap = func(i int, shard http.Handler) http.Handler {
			next := shard
			if i == 1 {
				next = gate.wrap(next)
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/shard/delivery/begin" {
					begins.Add(1)
					if sessionActive(t, shard) {
						t.Errorf("shard %d still holds the failed attempt's session when the retry begins", i)
					}
				}
				next.ServeHTTP(w, r)
			})
		}
	})
	ids := setupAccount(t, f.Client(), 1)

	if err := f.Coord.Deliver(ctx, ids, 9750); !errors.Is(err, coordinator.ErrDayExhausted) {
		t.Fatalf("day over a shard that loses every tick = %v, want ErrDayExhausted", err)
	}
	if got := begins.Load(); got != 6 {
		t.Errorf("%d begins reached the backends, want 6 (3 attempts on 2 shards)", got)
	}
	for i := 0; i < 2; i++ {
		st, err := shardClient(t, f, i).ShardStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.SessionActive {
			t.Errorf("shard %d still holds a session after Deliver returned", i)
		}
	}
}

// Satellite: suspect-scoring must not flap under transient injected 5xx.
// With a client-side fault transport injecting server errors on a third of
// RPCs, CRUD converges through retries and the health model never leaves
// healthy — an error answer is an answer.
func TestNoFlapUnderInjected5xx(t *testing.T) {
	inj, err := faults.New(faults.Config{Seed: 31, Rate: 0.33, Kinds: []faults.Kind{faults.KindReject5xx}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The fleet's retry policies are generous enough for a third of the calls
	// being injected 5xx.
	f := launch(t, 2, func(cfg *chaos.FleetConfig) { cfg.Injector = inj })
	coord, client := f.Coord, f.Client()

	ctx := context.Background()
	ids := setupAccount(t, client, 2)
	for i := 0; i < 5; i++ {
		f.Sup.Step(ctx)
		if _, err := client.GetAd(ctx, ids[0]); err != nil {
			t.Fatalf("GetAd under injection: %v", err)
		}
	}
	if _, err := coord.Inventory(ctx); err != nil {
		t.Fatalf("inventory under injection: %v", err)
	}
	for shard, st := range coord.Health().States() {
		if st != supervisor.Healthy {
			t.Errorf("shard %d state %v under injected 5xx, want healthy (no flap)", shard, st)
		}
	}
	snap := f.Reg.Snapshot()
	if got := snap.Counters[supervisor.MetricTransitions+"|suspect"]; got != 0 {
		t.Errorf("suspect transitions under injected 5xx = %d, want 0", got)
	}
	if got := inj.Metrics().Snapshot().Counters[faults.MetricInjected]; got == 0 {
		t.Errorf("fault injection never fired — the test proves nothing")
	}
}

// PR 6 error paths: aborting a day session that was never begun is a clean
// no-op over the wire, and dayStatus probes report an unreachable
// (mid-recovery) shard as pending rather than erroring the day.
func TestDayErrorPaths(t *testing.T) {
	ctx := context.Background()
	f := launch(t, 2, nil)
	coord, client := f.Coord, f.Client()
	ids := setupAccount(t, client, 1)

	// AbortDay against shards that never saw BeginDaySession: 200 no-op.
	for i := 0; i < 2; i++ {
		if err := shardClient(t, f, i).AbortDay(ctx, "never-begun"); err != nil {
			t.Fatalf("abort of never-begun session on shard %d: %v", i, err)
		}
	}

	// A committed day reads as committed...
	if err := client.Deliver(ctx, ids, 9800); err != nil {
		t.Fatal(err)
	}
	committed, pending, err := coord.DayStatus(ctx, ids, 2)
	if err != nil || !committed || len(pending) != 0 {
		t.Fatalf("dayStatus on committed day = (%v, %v, %v)", committed, pending, err)
	}
	// ...and with shard 1 unreachable mid-recovery, the probe reports it
	// pending instead of failing.
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	committed, pending, err = coord.DayStatus(ctx, ids, 2)
	if err != nil {
		t.Fatalf("dayStatus with unreachable shard: %v", err)
	}
	if committed || len(pending) != 1 || pending[0] != 1 {
		t.Fatalf("dayStatus with unreachable shard = (%v, %v)", committed, pending)
	}
}
