package coordinator

// Supervision-layer tests over real HTTP: quarantine, journal catch-up,
// digest-gated rejoin, journal overflow, the typed degradation errors, and
// the no-flap property under injected 5xx — the failure paths PR 7 owns.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

// downGate simulates a shard process death at the HTTP layer: while down,
// every request aborts the connection mid-handshake — the client observes
// transport silence (EOF), never an HTTP status, exactly like a SIGKILLed
// process. Reviving it models a relaunched shard that recovered its durable
// state from the WAL (the httptest backend's platform state was never lost;
// what a real restart loses — the in-memory delivery session and the
// idempotency cache — is covered by the journal's applied-probe design and
// cmd/adchaos's real-process soak).
type downGate struct {
	mu   sync.Mutex
	down bool
}

func (g *downGate) set(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *downGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		down := g.down
		g.mu.Unlock()
		if down {
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// newFleetCfg is newFleet with a Config hook for supervision knobs.
func newFleetCfg(t *testing.T, n int, wrap map[int]func(http.Handler) http.Handler, mod func(*Config)) (*Coordinator, *marketing.Client, string) {
	t.Helper()
	backends := make([]string, n)
	for i := range backends {
		backends[i] = newBackend(t, wrap[i])
	}
	return fleetOver(t, backends, mod)
}

// fleetOver is newFleetCfg over backends that are already serving.
func fleetOver(t *testing.T, backends []string, mod func(*Config)) (*Coordinator, *marketing.Client, string) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{Backends: backends, DayBackoff: time.Millisecond, DayBackoffMax: 4 * time.Millisecond}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	router, err := NewRouter(coord, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	return coord, client, ts.URL
}

// stepUntilDown drives supervisor passes until the shard is quarantined.
func stepUntilDown(t *testing.T, sup *supervisor.Supervisor, coord *Coordinator, shard int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		sup.Step(ctx)
		if !coord.isAdmitted(shard) {
			return
		}
	}
	t.Fatalf("shard %d never quarantined (state %v)", shard, coord.Health().State(shard))
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

	// Undisturbed reference fleet: same call sequence, no outage.
	_, refClient, _ := newFleetCfg(t, 2, nil, nil)
	refIDs := setupAccount(t, refClient, nAds)
	if err := refClient.Deliver(ctx, refIDs, seed-1); err != nil {
		t.Fatal(err)
	}
	refAud, err := refClient.CreateAudience(ctx, "out-aud", worldHash[:500])
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
	gate := &downGate{}
	coord, client, _ := newFleetCfg(t, 2, map[int]func(http.Handler) http.Handler{1: gate.wrap}, nil)
	reg := coord.reg
	sup := supervisor.New(coord, nil, supervisor.Config{ProbeTimeout: time.Second}, reg)
	ids := setupAccount(t, client, nAds)
	// Commit a day BEFORE the outage: a coordinated day leaves each shard
	// with the tallies of its own user partition — divergent by design —
	// which the rejoin digest gate must ignore (it hashes only the
	// replicated account surface, or no shard could ever rejoin after a
	// fleet's first committed day).
	if err := client.Deliver(ctx, ids, seed-1); err != nil {
		t.Fatal(err)
	}

	gate.set(true)
	stepUntilDown(t, sup, coord, 1)
	if got := coord.Health().State(1); got != supervisor.Down {
		t.Fatalf("dead shard state %v, want down", got)
	}

	// CRUD keeps flowing against the journal: a full audience + campaign +
	// 2 ads land while shard 1 is a corpse.
	aud, err := client.CreateAudience(ctx, "out-aud", worldHash[:500])
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
	if got := snap.Counters[MetricJournalAppends]; got != 4 {
		t.Errorf("journal appends during outage = %d, want 4", got)
	}
	if got := snap.Gauges[MetricJournalDepth]; got != 4 {
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

	// Resurrection: the shard answers again; one supervisor pass marks it
	// recovering and walks it through replay + digest gate back to admitted.
	gate.set(false)
	sup.Step(ctx)
	if !coord.isAdmitted(1) {
		t.Fatalf("revived shard not readmitted (state %v)", coord.Health().State(1))
	}
	if got := coord.Health().State(1); got != supervisor.Healthy {
		t.Fatalf("revived shard state %v, want healthy", got)
	}
	snap = reg.Snapshot()
	if got := snap.Counters[MetricJournalReplayed]; got != 4 {
		t.Errorf("journal entries replayed = %d, want 4 (zero acked writes lost)", got)
	}
	if got := snap.Gauges[MetricJournalDepth]; got != 0 {
		t.Errorf("journal depth after rejoin = %d, want 0", got)
	}
	if snap.Counters[MetricRejoins] < 1 {
		t.Errorf("rejoin counter = %d, want >= 1", snap.Counters[MetricRejoins])
	}
	if snap.Histograms[MetricJournalReplayLatency].Count == 0 {
		t.Errorf("journal replay latency never observed")
	}
	if snap.Histograms["supervisor.mttr"].Count == 0 {
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

// Journal overflow: with the journal at capacity during an outage, new
// mutations are refused with 503 + Retry-After — and the SAME idempotent
// request succeeds cleanly after the fleet heals (the refusal happens before
// any shard executes, so there is no half-applied state to reconcile).
func TestJournalOverflow503ComposesWithRetry(t *testing.T) {
	ctx := context.Background()
	gate := &downGate{}
	coord, client, routerURL := newFleetCfg(t, 2,
		map[int]func(http.Handler) http.Handler{1: gate.wrap},
		func(cfg *Config) { cfg.JournalCap = 1 })
	sup := supervisor.New(coord, nil, supervisor.Config{ProbeTimeout: time.Second}, coord.reg)
	setupAccount(t, client, 1)

	gate.set(true)
	stepUntilDown(t, sup, coord, 1)

	// First mutation journals; the journal is now full.
	if _, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "fits", Objective: "TRAFFIC"}); err != nil {
		t.Fatalf("first outage mutation: %v", err)
	}

	// Second mutation overflows: raw POST to inspect status and headers.
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, routerURL+"/v1/campaigns",
			strings.NewReader(`{"name":"overflows","objective":"TRAFFIC"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(marketing.IdempotencyKeyHeader, "overflow-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow response missing Retry-After")
	}
	if got := coord.reg.Snapshot().Counters[MetricJournalRejects]; got < 1 {
		t.Errorf("journal reject counter = %d, want >= 1", got)
	}

	// Heal, then the client's idempotent retry (same key) goes through.
	gate.set(false)
	sup.Step(ctx)
	if !coord.isAdmitted(1) {
		t.Fatalf("shard not readmitted after heal")
	}
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
	coord, client, _ := newFleetCfg(t, 2,
		map[int]func(http.Handler) http.Handler{1: gate.wrap},
		func(cfg *Config) { cfg.DayAttempts = 3 })
	ids := setupAccount(t, client, 1)

	err := coord.Deliver(ctx, ids, 9700)
	if !errors.Is(err, ErrDayExhausted) {
		t.Fatalf("exhausted day error = %v, want ErrDayExhausted", err)
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters[MetricDayRetries]; got != 2 {
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
	plats := []*platform.Platform{newPlatform(t), newPlatform(t)}
	backends := make([]string, len(plats))
	for i, p := range plats {
		backends[i] = serveBackend(t, p, func(next http.Handler) http.Handler {
			if i == 1 {
				next = gate.wrap(next)
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/shard/delivery/begin" {
					begins.Add(1)
					if p.SessionActive() {
						t.Errorf("shard %d still holds the failed attempt's session when the retry begins", i)
					}
				}
				next.ServeHTTP(w, r)
			})
		})
	}
	coord, client, _ := fleetOver(t, backends, func(cfg *Config) { cfg.DayAttempts = 3 })
	ids := setupAccount(t, client, 1)

	if err := coord.Deliver(ctx, ids, 9750); !errors.Is(err, ErrDayExhausted) {
		t.Fatalf("day over a shard that loses every tick = %v, want ErrDayExhausted", err)
	}
	if got := begins.Load(); got != 6 {
		t.Errorf("%d begins reached the backends, want 6 (3 attempts on 2 shards)", got)
	}
	for _, sc := range coord.shards {
		st, err := sc.client.ShardStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.SessionActive {
			t.Errorf("%s still holds a session after Deliver returned", sc.label)
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
	coord, client, _ := newFleetCfg(t, 2, nil, func(cfg *Config) {
		cfg.Transport = faults.NewTransport(nil, inj, nil)
	})
	// Generous retries: a third of calls are injected 5xx.
	coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	client.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	sup := supervisor.New(coord, nil, supervisor.Config{ProbeTimeout: time.Second}, coord.reg)

	ctx := context.Background()
	ids := setupAccount(t, client, 2)
	for i := 0; i < 5; i++ {
		sup.Step(ctx)
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
	snap := coord.reg.Snapshot()
	if got := snap.Counters["supervisor.transitions|suspect"]; got != 0 {
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
	gate := &downGate{}
	coord, client, _ := newFleetCfg(t, 2, map[int]func(http.Handler) http.Handler{1: gate.wrap}, nil)
	ids := setupAccount(t, client, 1)

	// AbortDay against shards that never saw BeginDaySession: 200 no-op.
	for _, sc := range coord.shards {
		if err := sc.client.AbortDay(ctx, "never-begun"); err != nil {
			t.Fatalf("abort of never-begun session on %s: %v", sc.label, err)
		}
	}

	// A committed day reads as committed...
	if err := client.Deliver(ctx, ids, 9800); err != nil {
		t.Fatal(err)
	}
	committed, pending, err := coord.dayStatus(ctx, ids, 2)
	if err != nil || !committed || len(pending) != 0 {
		t.Fatalf("dayStatus on committed day = (%v, %v, %v)", committed, pending, err)
	}
	// ...and with shard 1 unreachable mid-recovery, the probe reports it
	// pending instead of failing.
	gate.set(true)
	committed, pending, err = coord.dayStatus(ctx, ids, 2)
	if err != nil {
		t.Fatalf("dayStatus with unreachable shard: %v", err)
	}
	if committed || len(pending) != 1 || pending[0] != 1 {
		t.Fatalf("dayStatus with unreachable shard = (%v, %v)", committed, pending)
	}
}
