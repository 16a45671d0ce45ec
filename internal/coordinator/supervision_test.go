package coordinator_test

// Supervision-layer tests over the simulated fleet: quarantine, rejoin by
// state transfer through the digest gate, a partial commit the transfer must
// not hide, the typed degradation errors, and the no-flap property under
// injected 5xx. A shard dies here the way it does under the chaos soak —
// Fleet.Kill drops its serving stack and the unflushed tail of its WAL,
// Fleet.Relaunch trains a fresh platform and recovers the account from disk
// — so what a restart loses (the delivery session, the idempotency cache) is
// lost in these tests too.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
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

// stepUntilDown drives supervision passes until the shard is quarantined. The
// passes sleep on nothing, so the fleet's clock stands still and the
// supervisor's relaunch grace never runs out: the test decides when the shard
// comes back.
func stepUntilDown(t *testing.T, f *chaos.Fleet, shard int) {
	t.Helper()
	for i := 0; i < 10; i++ {
		f.Coord.Step(context.Background())
		if state(f, shard) == coordinator.Down {
			return
		}
	}
	t.Fatalf("shard %d never quarantined (state %v)", shard, state(f, shard))
}

// revive relaunches a dead shard and gives the coordinator the one supervision pass that
// must walk it through the state transfer and the digest gate back to
// healthy.
func revive(t *testing.T, f *chaos.Fleet, shard int) {
	t.Helper()
	if err := f.Relaunch(shard); err != nil {
		t.Fatal(err)
	}
	f.Coord.Step(context.Background())
	if got := state(f, shard); got != coordinator.Healthy {
		t.Fatalf("revived shard state %v, want healthy", got)
	}
}

// The resurrection end to end: a shard dies, the supervisor quarantines it,
// CRUD keeps flowing on the survivor, insights degrade with a typed 503, the
// shard comes back, takes the replicated state from its peer and passes the
// digest gate, and a delivery day over the healed fleet is byte-identical to
// an undisturbed fleet's.
func TestShardResurrectionWithStateTransfer(t *testing.T) {
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
	coord, client := f.Coord, f.Client()
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

	// CRUD keeps flowing: a full audience + campaign + 2 ads land while
	// shard 1 is a corpse.
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
	// no idempotency cache — and one supervision pass marks it recovering and
	// walks it through the state transfer + digest gate back to admitted.
	revive(t, f, 1)
	snap := f.Reg.Snapshot()
	if snap.Counters[coordinator.MetricRejoins] < 1 {
		t.Errorf("rejoin counter = %d, want >= 1", snap.Counters[coordinator.MetricRejoins])
	}
	if snap.Histograms[coordinator.MetricMTTR].Count == 0 {
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
	if err := client.Deliver(ctx, outageIDs, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("healed-fleet day diverged from undisturbed fleet:\n got %s\nwant %s", got, want)
	}
}

// TestTransferKeepsPartialCommitVisible: shard 1 dies inside a day's finish
// fan-out, after shard 0 committed and before it did, and is relaunched. The
// day's retry preamble rejoins it, so its state transfer runs while the
// partial commit is outstanding: the COMPLETED bits it must not take from
// shard 0 (they are each shard's own) fail the digest gate, the day replays
// on shard 1, and the fleet, rejoined, reads what an undisturbed one does.
func TestTransferKeepsPartialCommitVisible(t *testing.T) {
	const nAds = 2
	const seed = 9450
	ctx := context.Background()
	want := referenceDigest(t, nAds, seed, 2, nil)

	var f *chaos.Fleet
	var crashed atomic.Bool
	f = launch(t, 2, both(durable(t), wrapShard(1, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shard/delivery/finish" || !crashed.CompareAndSwap(false, true) {
				next.ServeHTTP(w, r)
				return
			}
			// Dead before its commit; its supervisor has it quarantined and
			// back from its WAL by the time the finish is retried.
			f.Coord.MarkDown(1)
			if err := f.Relaunch(1); err != nil {
				t.Error(err)
			}
			w.WriteHeader(http.StatusInternalServerError)
		})
	})))
	client := f.Client()
	ids := setupAccount(t, client, nAds)
	if err := client.Deliver(ctx, ids, seed); err != nil {
		t.Fatal(err)
	}
	if !crashed.Load() {
		t.Fatal("shard 1 never reached the finish")
	}
	snap := f.Reg.Snapshot()
	if snap.Counters[coordinator.MetricRejoinFailures] < 1 {
		t.Errorf("the rejoin under a partial commit passed the digest gate; it must fail until the day replays")
	}
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("first pass after the replayed day left shard 1 %v, want healthy", got)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("healed fleet diverged from the reference:\n got %s\nwant %s", got, want)
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
	injReg := obs.NewRegistry()
	inj, err := faults.New(faults.Config{Seed: 31, Rate: 0.33, Kinds: []faults.Kind{faults.KindReject5xx}}, injReg)
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
		f.Coord.Step(ctx)
		if _, err := client.GetAd(ctx, ids[0]); err != nil {
			t.Fatalf("GetAd under injection: %v", err)
		}
	}
	if _, err := coord.Inventory(ctx); err != nil {
		t.Fatalf("inventory under injection: %v", err)
	}
	for shard, st := range coord.States() {
		if st != coordinator.Healthy {
			t.Errorf("shard %d state %v under injected 5xx, want healthy (no flap)", shard, st)
		}
	}
	snap := f.Reg.Snapshot()
	if got := snap.Counters[coordinator.MetricTransitions+"|suspect"]; got != 0 {
		t.Errorf("suspect transitions under injected 5xx = %d, want 0", got)
	}
	if got := injReg.Counter(faults.MetricInjected).Value(); got == 0 {
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

// rawGet hands a router one GET and returns the recorded response.
func rawGet(router http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// scoreDownByInsights reads insights through the coordinator, with no
// supervision pass, until live traffic has scored the shard down.
func scoreDownByInsights(t *testing.T, f *chaos.Fleet, shard int, adID string) {
	t.Helper()
	for i := 0; i < 2*coordinator.DownAfter && state(f, shard) != coordinator.Down; i++ {
		if _, err := f.Coord.Insights(context.Background(), adID, nil); err == nil {
			t.Fatalf("insights read %d answered with shard %d dead", i, shard)
		}
	}
	if got := state(f, shard); got != coordinator.Down {
		t.Fatalf("live insights reads left shard %d %v, want down", shard, got)
	}
}

// TestShardScoredDownLeavesServiceAtOnce: a shard that live traffic scores
// down is out of service the moment it is scored, before any supervisor
// pass. The next insights read is refused with the typed ErrShardDown — a
// 503 with Retry-After at the router, not the dead shard's transport error
// as a 502 — the topology shows the shard not admitted, and a create still
// lands on the survivor.
func TestShardScoredDownLeavesServiceAtOnce(t *testing.T) {
	ctx := context.Background()
	f := launch(t, 2, nil)
	client := f.Client()
	ids := setupAccount(t, client, 1)
	if err := client.Deliver(ctx, ids, 9900); err != nil {
		t.Fatal(err)
	}

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	scoreDownByInsights(t, f, 1, ids[0])

	if _, err := f.Coord.Insights(ctx, ids[0], nil); !errors.Is(err, coordinator.ErrShardDown) {
		t.Fatalf("insights read after shard 1 was scored down: %v, want ErrShardDown", err)
	}
	rec := rawGet(f.Router, "/v1/insights?ad_id="+ids[0])
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("router insights read: %d (Retry-After %q) %s, want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	var topo coordinator.TopologyResponse
	if err := json.Unmarshal(rawGet(f.Router, "/v1/topology").Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Admitted) != 2 || !topo.Admitted[0] || topo.Admitted[1] || topo.Health[1] != "down" {
		t.Fatalf("topology %+v, want shard 1 down and not admitted", topo)
	}
	if _, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "survivor", Objective: "TRAFFIC"}); err != nil {
		t.Fatalf("create on the survivor: %v", err)
	}
}

// TestEveryExitFromServiceCountedOnce: the quarantine counter rises by one
// per exit from service, whichever path took the shard out — live RPCs, a
// supervisor probe or a divergence — and not again while the shard stays
// out.
func TestEveryExitFromServiceCountedOnce(t *testing.T) {
	ctx := context.Background()
	f := launch(t, 2, durable(t))
	client := f.Client()
	ids := setupAccount(t, client, 1)
	quarantines := func() int64 { return f.Reg.Snapshot().Counters[coordinator.MetricQuarantines] }
	expect := func(path string, want int64) {
		t.Helper()
		if got := quarantines(); got != want {
			t.Fatalf("after %s: %d quarantines counted, want %d", path, got, want)
		}
		for i := 0; i < 3 && !state(f, 1).InService(); i++ {
			f.Coord.Step(ctx) // a shard that stays out is not counted again
		}
		if got := quarantines(); got != want {
			t.Fatalf("after %s and supervision passes: %d quarantines counted, want %d", path, got, want)
		}
	}

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	scoreDownByInsights(t, f, 1, ids[0])
	expect("live insights reads", 1)
	revive(t, f, 1)

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)
	expect("supervisor probes", 2)
	revive(t, f, 1)

	if _, err := shardClient(t, f, 1).CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "unrelayed", Objective: "TRAFFIC"}); err != nil {
		t.Fatal(err)
	}
	if status, answer := rawPost(t, f.Router, "/v1/campaigns", "diverge", mustJSON(t, marketing.CreateCampaignRequest{Name: "next", Objective: "TRAFFIC"})); status != http.StatusBadGateway {
		t.Fatalf("create after shard 1 went its own way: %d %s, want a 502 divergence", status, answer)
	}
	expect("a divergence", 3)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("diverged shard state %v after supervision passes, want healthy (rejoined)", got)
	}
}
