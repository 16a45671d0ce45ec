package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
)

// Sizing of the serving workloads: a 40 000-voter FL world; serve uploads
// 2000-hash audiences (a ~7 ms day, so wire, WAL and privacy dominate) from
// one closed-loop client — the paper's caller is a script that waits for each
// reply, and with one operation in flight the process's CPU time can be
// attributed to it.
const (
	serveVoters        = 40_000
	serveAudience      = 2000
	serveSnapshotEvery = 5000 // cmd/adplatform's default
	adsPerScenario     = 4
	warmScenarios      = 2
)

// acked counts the creates the server acknowledged, warm-up included: the
// inventory a recovered platform must hold.
type acked struct {
	audiences, campaigns, ads int
}

func (a *acked) add(o *scenarioOutcome) {
	a.audiences++
	a.campaigns++
	a.ads += len(o.adIDs)
}

// serveEnv is one marketing.Server with the WAL store armed (fsync interval,
// so the sandbox's disk stays out of the ack path) and insights privacy at
// k=5, ε=1, behind an httptest listener on loopback.
type serveEnv struct {
	rc       *runCtx
	world    *voterWorld
	plat     *platform.Platform
	reg      *obs.Registry
	st       *store.Store
	storeDir string
	srv      *marketing.Server
	ts       *httptest.Server
	base     *http.Transport
	client   *marketing.Client
	privCfg  privacy.Config

	acked      acked
	next       int // next scenario index
	scenarios  int // completed in the measured phase
	suppressed int64
	privatized int64
	sampleAds  []string // ad IDs of the first measured scenarios, for the privacy replay
	traced     []float64
	untraced   []float64
	storeDelta map[string]int64
	recovered  *platform.Platform
	recoverMs  float64
	snapshotMs float64
}

func setupServe(rc *runCtx) (env, error) {
	seed := rc.cfg.seed
	world, err := buildVoterWorld(seed, serveVoters)
	if err != nil {
		return nil, err
	}
	rc.layer["voter.generate_records_per_s"] = world.generatePerS
	rc.layer["population.build_users_per_s"] = world.buildPerS
	start := time.Now()
	plat, err := newPlatform(world.pop, world.behave, seed)
	if err != nil {
		return nil, err
	}
	rc.layer["platform.new_s"] = time.Since(start).Seconds()

	e := &serveEnv{rc: rc, world: world, plat: plat, reg: obs.NewRegistry(), base: newBaseTransport(), privCfg: benchPrivacy(seed)}
	if e.storeDir, err = os.MkdirTemp(rc.cfg.outDir, "store-"); err != nil {
		return nil, err
	}
	if e.st, err = e.openStore(plat); err != nil {
		return nil, err
	}
	var persister marketing.Persister = e.st
	if rc.cfg.trace {
		persister = &timingPersister{next: e.st, ser: rc.ser, tr: rc.tr}
	}
	e.srv, err = marketing.NewServer(plat, marketing.WithRegistry(e.reg), marketing.WithPrivacy(e.privCfg), marketing.WithPersister(persister))
	if err != nil {
		e.close()
		return nil, err
	}
	handler := e.srv.Handler()
	if rc.cfg.trace {
		handler = timingHandler(handler, "server", rc.ser, rc.tr, nil)
	}
	e.ts = httptest.NewServer(handler)
	if e.client, err = newClient(e.ts.URL, e.base, rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// newClient points a marketing client at url over base; in the traced pass a
// timing transport sits between them.
func newClient(url string, base http.RoundTripper, rc *runCtx) (*marketing.Client, error) {
	c, err := marketing.NewClient(url)
	if err != nil {
		return nil, err
	}
	if rc.cfg.trace {
		base = &timingTransport{base: base, prefix: "http", ser: rc.ser, tr: rc.tr}
	}
	c.SetTransport(base)
	return c, nil
}

func (e *serveEnv) openStore(p *platform.Platform) (*store.Store, error) {
	st, err := store.Open(store.Options{Dir: e.storeDir, Fsync: store.FsyncInterval, SnapshotEvery: serveSnapshotEvery, Metrics: e.reg})
	if err != nil {
		return nil, err
	}
	if _, err := st.Recover(p); err != nil {
		return nil, err
	}
	return st, nil
}

func (e *serveEnv) close() {
	if e.ts != nil {
		e.base.CloseIdleConnections()
		e.ts.Close()
	}
	if e.st != nil {
		if _, err := e.st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing store:", err)
		}
	}
	_ = os.RemoveAll(e.storeDir) // scratch state under the out directory
}

// scenario generates and runs the next scenario.
func (e *serveEnv) scenario(rc *runCtx, traced bool) error {
	idx := e.next
	e.next++
	spec := genScenario(e.rc.cfg.seed, idx, e.world.hashes, serveAudience, adsPerScenario)
	out, err := runScenario(context.Background(), e.client, &spec, 0, rc, traced)
	if err != nil {
		return err
	}
	e.acked.add(out)
	responses, cells := out.suppression()
	e.privatized += responses
	e.suppressed += cells
	if rc != e.rc {
		return nil
	}
	e.scenarios++
	if traced {
		e.traced = append(e.traced, out.wall)
	} else {
		e.untraced = append(e.untraced, out.wall)
	}
	if len(e.sampleAds) < 200 {
		e.sampleAds = append(e.sampleAds, out.adIDs...)
	}
	return nil
}

func (e *serveEnv) warm() error {
	scratch := e.rc.scratch()
	for i := 0; i < warmScenarios; i++ {
		if err := e.scenario(scratch, false); err != nil {
			return err
		}
	}
	return nil
}

// storeCounters are the store's exact counters the traced pass reports.
var storeCounters = []string{
	store.MetricRecordsAppended, store.MetricBytesAppended, store.MetricGroupCommits, store.MetricFsyncs, store.MetricSnapshots,
}

func (e *serveEnv) measure(deadline time.Time) error {
	before := e.reg.Snapshot().Counters
	for time.Now().Before(deadline) {
		// The traced pass alternates spans on and off by scenario, so the
		// same run yields the tracing overhead.
		if err := e.scenario(e.rc, e.rc.cfg.trace && e.next%2 == 0); err != nil {
			break // recorded as a failed operation
		}
	}
	after := e.reg.Snapshot().Counters
	e.storeDelta = map[string]int64{}
	for _, name := range storeCounters {
		e.storeDelta[name] = after[name] - before[name]
	}
	return nil
}

// verify closes the store, recovers it into a freshly built platform, and
// requires the recovered inventory to equal both the inventory before the
// close and the creates the server acknowledged.
func (e *serveEnv) verify() error {
	rec := e.rc.rec
	if e.rc.cfg.trace {
		start := time.Now()
		if err := e.st.Snapshot(); err != nil {
			return err
		}
		e.snapshotMs = float64(time.Since(start)) / float64(time.Millisecond)
	}
	before := e.plat.Inventory()
	e.base.CloseIdleConnections()
	e.ts.Close()
	e.ts = nil
	if _, err := e.st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	e.st = nil

	fresh, err := newPlatform(e.world.pop, e.world.behave, e.rc.cfg.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	if e.st, err = e.openStore(fresh); err != nil {
		return fmt.Errorf("recovering store: %w", err)
	}
	e.recoverMs = float64(time.Since(start)) / float64(time.Millisecond)
	e.recovered = fresh
	after := fresh.Inventory()
	rec.check(reflect.DeepEqual(before, after), "inventory after Recover %+v != inventory before close %+v",
		summarizeInventory(after), summarizeInventory(before))
	want := platform.Inventory{Audiences: e.acked.audiences, Campaigns: e.acked.campaigns, Ads: e.acked.ads}
	rec.check(after.Audiences == want.Audiences && after.Campaigns == want.Campaigns && after.Ads == want.Ads,
		"recovered inventory %+v != acked creates %+v", summarizeInventory(after), want)
	return nil
}

// summarizeInventory drops the name list for error messages.
func summarizeInventory(inv platform.Inventory) platform.Inventory {
	inv.CampaignNames = nil
	return inv
}

func (e *serveEnv) layers(out map[string]float64) {
	ser := e.rc.ser
	serverSideLayers(out, ser, "server")
	out["marketing.retries"] = float64(clientRetries(e.client))
	out["marketing.idempotent_replays"] = float64(e.reg.Snapshot().Counters[marketing.MetricIdempotentReplays])

	barrier := sorted(ser.samples("store.barrier"))
	out["store.barrier_wait_ms_p50"] = percentile(barrier, 50)
	out["store.barrier_wait_ms_p99"] = percentile(barrier, 99)
	// Counts are per completed scenario, so runs of different length compare:
	// one scenario appends exactly 7 records (audience, campaign, 4 ads, day).
	if n := float64(e.scenarios); n > 0 {
		out["store.records_appended"] = float64(e.storeDelta[store.MetricRecordsAppended]) / n
		out["store.bytes_appended"] = float64(e.storeDelta[store.MetricBytesAppended]) / n
		out["store.group_commits"] = float64(e.storeDelta[store.MetricGroupCommits]) / n
		out["store.fsyncs"] = float64(e.storeDelta[store.MetricFsyncs]) / n
	}
	if c := e.storeDelta[store.MetricGroupCommits]; c > 0 {
		out["store.records_per_commit"] = float64(e.storeDelta[store.MetricRecordsAppended]) / float64(c)
	}
	out["store.snapshots"] = float64(e.storeDelta[store.MetricSnapshots])
	out["store.snapshot_ms"] = e.snapshotMs
	out["store.recover_ms"] = e.recoverMs

	if e.privatized > 0 {
		out["privacy.suppressed_cells_per_response"] = float64(e.suppressed) / float64(e.privatized)
	}
	out["privacy.apply_us"] = privacyApplyUs(e.recovered, e.privCfg, e.sampleAds)
	out["bench.trace_overhead_pct"] = overheadPct(e.traced, e.untraced)

	// One full-pool upload straight into the (recovered) platform.
	_, out["platform.audience_match_us_per_hash"] = audienceMatchUs(e.recovered, "bench-probe", e.world.hashes)
}

// serverSideLayers fills the marketing.* per-layer metrics from the handler
// wrapper's series (prefix "server" or "router") and the client-observed
// per-operation series runScenario keeps.
func serverSideLayers(out map[string]float64, ser *series, prefix string) {
	for _, op := range advertiserOps {
		server := median(ser.samples(prefix + "." + op))
		out["marketing.server_ms."+op] = server
		out["marketing.wire_overhead_ms."+op] = median(ser.samples("op."+op)) - server
	}
	out["marketing.request_bytes.create_audience"] = ser.mean(prefix + ".request_bytes.create_audience")
	out["marketing.response_bytes.insights"] = ser.mean(prefix + ".response_bytes.insights")
}

func clientRetries(c *marketing.Client) int64 {
	return c.Metrics().Snapshot().Counters[marketing.MetricClientRetries]
}

// privacyApplyUs replays the privacy pass alone: it rebuilds the raw wire
// report of each sampled ad from the platform's own insights and times
// marketing.PrivatizeInsights over it. The median is in microseconds.
func privacyApplyUs(p *platform.Platform, cfg privacy.Config, adIDs []string) float64 {
	var us []float64
	for _, id := range adIDs {
		st, err := p.Insights(id)
		if err != nil {
			continue
		}
		raw := &marketing.InsightsResponse{
			AdID: st.AdID, Impressions: st.Impressions, Reach: st.Reach, Clicks: st.Clicks,
			SpendCents: st.SpendCents, Hourly: st.HourlySeries,
		}
		for k, n := range st.Breakdown {
			raw.Breakdown = append(raw.Breakdown, marketing.BreakdownRow{
				Age: k.Age.String(), Gender: k.Gender.String(), Region: k.Region.String(), Impressions: n,
			})
		}
		start := time.Now()
		marketing.PrivatizeInsights(cfg, raw)
		us = append(us, float64(time.Since(start).Nanoseconds())/1000)
	}
	return median(us)
}
