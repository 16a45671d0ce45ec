package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/store"
)

// ackLedger records every operation the server ACKNOWLEDGED (2xx response
// reached the client). The durability contract under test: an acked create
// or delivery survives any crash, because the response was only written
// after the WAL record was flushed.
type ackLedger struct {
	mu        sync.Mutex
	audiences map[string]bool
	campaigns map[string]string // id -> name
	ads       map[string]bool
	delivered map[string]int // adID -> impressions seen post-deliver (-1 unknown)
}

func newAckLedger() *ackLedger {
	return &ackLedger{
		audiences: map[string]bool{},
		campaigns: map[string]string{},
		ads:       map[string]bool{},
		delivered: map[string]int{},
	}
}

// crashFleet is the durable platform under test: a simulated fleet of one
// shard (internal/chaos.Fleet), its serving stack what cmd/adplatform
// assembles — persist before respond, a WAL directory that outlives every
// incarnation. Fleet.Kill is the
// crash: the store drops its unflushed tail exactly like a SIGKILLed process
// and the host refuses connections until Fleet.Relaunch recovers it.
func crashFleet(t *testing.T) *chaos.Fleet {
	t.Helper()
	pop, behave, _ := world(t)
	cfg := platform.DefaultConfig(903)
	cfg.Training.LogRows = 2000
	cfg.ReviewRejectProb = 0
	f, err := chaos.NewFleet(chaos.FleetConfig{
		World: &node.World{Pop: pop, Behavior: behave}, Platform: cfg, Shards: 1,
		Dir: t.TempDir(),
		Stack: node.StackConfig{
			// Fsync none: the soak simulates process crashes (Kill drops the
			// store's unflushed buffer), not machine power loss, and fsyncs
			// would only slow the loop without changing what Kill can lose.
			Store: store.Options{
				Fsync:         store.FsyncNone,
				SnapshotEvery: 25, // force snapshot+compaction churn during the soak
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// crashClient talks straight to the shard, its requests drawing faults 20%
// of the time, with a deep retry budget, matching the chaos soak: at that
// rate back-to-back faults per call are routine. Its backoff and injected
// delays are slept on the fleet's virtual clock.
func crashClient(t *testing.T, f *chaos.Fleet) *marketing.Client {
	t.Helper()
	client, err := f.ShardClient(0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{Seed: 42, Rate: 0.2, Kinds: faults.AllKinds()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.SetTransport(faults.NewTransport(f, inj, nil, f.Clock))
	client.SetRetryPolicy(marketing.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	})
	return client
}

// shardMetrics reads the shard's registry — the store's recovery gauges in
// particular, which describe the incarnation now serving.
func shardMetrics(t *testing.T, f *chaos.Fleet) obs.Snapshot {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, f.ShardURL(0)+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// runScenario drives one advertiser flow (audience → campaign → ads →
// deliver → insights), acking each step into the ledger only after the
// server's 2xx. Failures just end the scenario — during a crash window they
// are expected.
func runScenario(ctx context.Context, client *marketing.Client, led *ackLedger, hashes []string, tag string) {
	aud, err := client.CreateAudience(ctx, "crash-aud-"+tag, hashes)
	if err != nil {
		return
	}
	led.mu.Lock()
	led.audiences[aud.ID] = true
	led.mu.Unlock()

	cmpName := "crash-cmp-" + tag
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{
		Name: cmpName, Objective: "TRAFFIC", AccountAge: 2019,
	})
	if err != nil {
		return
	}
	led.mu.Lock()
	led.campaigns[cmp.ID] = cmpName
	led.mu.Unlock()

	var adIDs []string
	for i := 0; i < 2; i++ {
		ad, err := client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID:       cmp.ID,
			Creative:         marketing.WireCreative{Headline: "h"},
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{aud.ID}},
			DailyBudgetCents: 200,
		})
		if err != nil {
			return
		}
		led.mu.Lock()
		led.ads[ad.ID] = true
		led.mu.Unlock()
		adIDs = append(adIDs, ad.ID)
	}

	if err := client.Deliver(ctx, adIDs, 42); err != nil {
		return
	}
	led.mu.Lock()
	for _, id := range adIDs {
		led.delivered[id] = -1
	}
	led.mu.Unlock()
	for _, id := range adIDs {
		if ins, err := client.Insights(ctx, id); err == nil {
			led.mu.Lock()
			led.delivered[id] = ins.Impressions
			led.mu.Unlock()
		}
	}
}

// runLoad runs workers through scenarios until the context dies or the
// scenario budget is spent.
func runLoad(ctx context.Context, client *marketing.Client, led *ackLedger, hashes []string, workers, scenarios int, phase string) {
	var wg sync.WaitGroup
	var next int
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= scenarios || ctx.Err() != nil {
					return
				}
				runScenario(ctx, client, led, hashes, fmt.Sprintf("%s-%d", phase, i))
			}
		}()
	}
	wg.Wait()
}

// deliveredCount reports how many delivery acks the ledger holds.
func (l *ackLedger) deliveredCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.delivered)
}

// verifyLedger asserts, over the wire, that every acked object and delivery
// day exists on the shard now serving.
func verifyLedger(t *testing.T, client *marketing.Client, led *ackLedger, phase string) {
	t.Helper()
	ctx := context.Background()
	led.mu.Lock()
	defer led.mu.Unlock()
	inv, err := client.Inventory(ctx)
	if err != nil {
		t.Fatalf("%s: inventory: %v", phase, err)
	}
	// Audiences have no read route: the census must hold at least the acked
	// ones (a create may have applied and been flushed without its ack).
	if inv.Audiences < len(led.audiences) {
		t.Errorf("%s: %d audiences recovered, %d were acked", phase, inv.Audiences, len(led.audiences))
	}
	for id, name := range led.campaigns {
		if !slices.Contains(inv.CampaignNames, name) {
			t.Errorf("%s: acked campaign %s (%q) lost", phase, id, name)
		}
	}
	for id := range led.ads {
		if _, err := client.GetAd(ctx, id); err != nil {
			t.Errorf("%s: acked ad %s lost: %v", phase, id, err)
		}
	}
	for id, imp := range led.delivered {
		ad, err := client.GetAd(ctx, id)
		if err != nil {
			t.Errorf("%s: delivered ad %s lost: %v", phase, id, err)
			continue
		}
		if ad.Status != "COMPLETED" {
			t.Errorf("%s: ad %s delivery day lost: status %v, want COMPLETED", phase, id, ad.Status)
		}
		ins, err := client.Insights(ctx, id)
		if err != nil {
			t.Errorf("%s: delivered ad %s has no insights: %v", phase, id, err)
			continue
		}
		if imp >= 0 && ins.Impressions != imp {
			t.Errorf("%s: ad %s recovered with %d impressions, served %d", phase, id, ins.Impressions, imp)
		}
	}
	// No duplicates: a retried create that double-executed would produce a
	// second campaign with the same name.
	for i := 1; i < len(inv.CampaignNames); i++ {
		if inv.CampaignNames[i] == inv.CampaignNames[i-1] {
			t.Errorf("%s: campaign %q exists twice", phase, inv.CampaignNames[i])
		}
	}
}

// TestCrashRecoverySoak is the durability acceptance soak: concurrent
// advertiser load, 20% of it faulted, against a durably-backed server;
// the server is crashed mid-load (store buffer dropped, connections cut),
// restarted from disk, loaded again, gracefully shut down, and restarted
// once more. After every restart, every acknowledged create and every
// committed delivery day must be present — zero acked state lost — while
// torn WAL tails from the crash are truncated, not fatal. Run with -race.
func TestCrashRecoverySoak(t *testing.T) {
	f := crashFleet(t)
	client := crashClient(t, f)
	hashes := hashPool(t, 2000)
	led := newAckLedger()

	// Phase 1: load until at least two delivery days committed, then crash
	// mid-load.
	ctx1, cancel1 := context.WithCancel(context.Background())
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		runLoad(ctx1, client, led, hashes, 6, 200, "p1")
	}()
	deadline := time.Now().Add(60 * time.Second)
	for led.deliveredCount() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if led.deliveredCount() < 4 {
		t.Fatal("phase 1 never committed a delivery day")
	}
	if err := f.Kill(0); err != nil { // mid-load: workers are still issuing requests
		t.Fatal(err)
	}
	cancel1()
	<-loadDone
	p1Audiences := len(led.audiences)
	// Whatever the crash left of its last write, leave more: half a frame at
	// the end of the newest segment, as a kill between two write calls does.
	segments, err := filepath.Glob(filepath.Join(f.Dir(0), "wal-*.wal"))
	if err != nil || len(segments) == 0 {
		t.Fatalf("WAL segments after the crash: %v, %v", segments, err)
	}
	slices.Sort(segments)
	wal, err := os.OpenFile(segments[len(segments)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: recover from the crash — the torn tail is cut, not fatal — and
	// verify, then keep loading.
	if err := f.Relaunch(0); err != nil {
		t.Fatalf("recovering from the crash: %v", err)
	}
	if cut := shardMetrics(t, f).Counters[store.MetricTruncatedBytes]; cut < 6 {
		t.Errorf("recovery truncated %d bytes of a WAL that ended in a torn frame, want at least its 6", cut)
	}
	verifyLedger(t, client, led, "after crash")
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	runLoad(ctx2, client, led, hashes, 4, 6, "p2")
	if len(led.audiences) <= p1Audiences {
		t.Error("phase 2 load created nothing; the recovered server is not serving writes")
	}
	// Graceful shutdown this time: drain, flush, final snapshot.
	if err := f.Close(); err != nil {
		t.Fatalf("graceful close after recovery: %v", err)
	}

	// Phase 3: restart once more — the final snapshot left the WAL nothing to
	// replay — and verify the union of both phases.
	if err := f.Relaunch(0); err != nil {
		t.Fatal(err)
	}
	if tail := shardMetrics(t, f).Gauges[store.GaugeRecoveredEvents]; tail != 0 {
		t.Errorf("graceful close left %d WAL records outside the final snapshot", tail)
	}
	verifyLedger(t, client, led, "after graceful restart")

	led.mu.Lock()
	t.Logf("soak: %d audiences, %d campaigns, %d ads, %d delivered ads acked and verified across 1 crash + 1 graceful restart",
		len(led.audiences), len(led.campaigns), len(led.ads), len(led.delivered))
	led.mu.Unlock()
}
