package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// Sizing of the fleet workload: the serve world behind two shard backends;
// 20 000-hash audiences (≈13k matched users) make a coordinated day long
// enough that the tick barrier and the per-tick RPC, not request set-up,
// decide deliver latency. One closed-loop client, because Coordinator.mu
// serialises mutations and days fleet-wide: a second client would measure
// queueing on that mutex while the two shards already occupy both cores.
const (
	fleetShards   = 2
	fleetAudience = 20_000
	// fleetChecked is how many measured scenarios the single-process
	// reference replays for the byte-equality gate.
	fleetChecked = 3
)

// fleetEnv is coordinator + router over in-process shard backends, each a
// full marketing.Server over the same world serving raw insights; privacy
// (k=5, ε=1) is applied at the router after the merge.
type fleetEnv struct {
	rc      *runCtx
	world   *voterWorld
	reg     *obs.Registry
	servers []*httptest.Server // shards, then the router
	base    *http.Transport
	client  *marketing.Client
	privCfg privacy.Config
	current atomic.Pointer[link]

	next       int
	scenarios  int
	outcomes   []*scenarioOutcome // of the first warmScenarios+fleetChecked scenarios
	deliverMs  []float64          // client-observed, same scenarios
	traced     []float64
	untraced   []float64
	suppressed int64
	privatized int64
	refPlat    *platform.Platform
	refAds     []string
	refMs      []float64
}

func setupFleet(rc *runCtx) (env, error) {
	seed := rc.cfg.seed
	world, err := buildVoterWorld(seed, serveVoters)
	if err != nil {
		return nil, err
	}
	rc.layer["voter.generate_records_per_s"] = world.generatePerS
	rc.layer["population.build_users_per_s"] = world.buildPerS
	e := &fleetEnv{rc: rc, world: world, reg: obs.NewRegistry(), base: newBaseTransport(), privCfg: benchPrivacy(seed)}

	backends := make([]string, fleetShards)
	for i := range backends {
		start := time.Now()
		plat, err := newPlatform(world.pop, world.behave, seed)
		if err != nil {
			e.close()
			return nil, err
		}
		rc.layer["platform.new_s"] = time.Since(start).Seconds()
		srv, err := marketing.NewServer(plat)
		if err != nil {
			e.close()
			return nil, err
		}
		handler := srv.Handler()
		if rc.cfg.trace {
			handler = timingHandler(handler, "shard", rc.ser, rc.tr, nil)
		}
		ts := httptest.NewServer(handler)
		e.servers = append(e.servers, ts)
		backends[i] = ts.URL
	}

	var rpc http.RoundTripper = e.base
	if rc.cfg.trace {
		rpc = &timingTransport{base: e.base, prefix: "rpc", ser: rc.ser, tr: rc.tr, current: &e.current}
	}
	coord, err := coordinator.New(coordinator.Config{Backends: backends, Privacy: e.privCfg, Transport: rpc}, e.reg)
	if err != nil {
		e.close()
		return nil, err
	}
	router, err := coordinator.NewRouter(coord, e.reg)
	if err != nil {
		e.close()
		return nil, err
	}
	handler := router.Handler()
	if rc.cfg.trace {
		handler = timingHandler(handler, "router", rc.ser, rc.tr, &e.current)
	}
	ts := httptest.NewServer(handler)
	e.servers = append(e.servers, ts)
	if e.client, err = newClient(ts.URL, e.base, rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *fleetEnv) close() {
	e.base.CloseIdleConnections()
	for _, ts := range e.servers {
		ts.Close()
	}
}

func (e *fleetEnv) spec(idx int) scenarioSpec {
	return genScenario(e.rc.cfg.seed, idx, e.world.hashes, fleetAudience, adsPerScenario)
}

func (e *fleetEnv) scenario(rc *runCtx, traced bool) error {
	idx := e.next
	e.next++
	spec := e.spec(idx)
	out, err := runScenario(context.Background(), e.client, &spec, 0, rc, traced)
	if err != nil {
		return err
	}
	if idx < warmScenarios+fleetChecked {
		e.outcomes = append(e.outcomes, out)
		d := rc.ser.samples("op.deliver")
		e.deliverMs = append(e.deliverMs, d[len(d)-1])
	}
	if rc != e.rc {
		return nil
	}
	e.scenarios++
	if traced {
		e.traced = append(e.traced, out.wall)
	} else {
		e.untraced = append(e.untraced, out.wall)
	}
	responses, cells := out.suppression()
	e.privatized += responses
	e.suppressed += cells
	return nil
}

func (e *fleetEnv) warm() error {
	scratch := e.rc.scratch()
	for i := 0; i < warmScenarios; i++ {
		if err := e.scenario(scratch, false); err != nil {
			return err
		}
	}
	return nil
}

func (e *fleetEnv) measure(deadline time.Time) error {
	for time.Now().Before(deadline) {
		// The traced pass alternates spans on and off by scenario.
		if err := e.scenario(e.rc, e.rc.cfg.trace && e.next%2 == 0); err != nil {
			break // recorded as a failed operation
		}
	}
	return nil
}

// verify replays the first scenarios, in order, on a single marketing.Server
// over the same world with the same privacy policy and workers=2: the
// fleet's merged-then-privatized insights must equal it byte for byte (same
// creation order, so same object IDs, so the same seeded noise). It also
// requires that no coordinated day was restarted.
func (e *fleetEnv) verify() error {
	rec := e.rc.rec
	plat, err := newPlatform(e.world.pop, e.world.behave, e.rc.cfg.seed)
	if err != nil {
		return err
	}
	srv, err := marketing.NewServer(plat, marketing.WithPrivacy(e.privCfg))
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer e.base.CloseIdleConnections()
	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		return err
	}
	client.SetTransport(e.base)
	scratch := e.rc.scratch()
	for idx, fleet := range e.outcomes {
		spec := e.spec(idx)
		ref, err := runScenario(context.Background(), client, &spec, fleetShards, scratch, false)
		if err != nil {
			return err
		}
		rec.check(bytes.Equal(insightsBytes(fleet), insightsBytes(ref)),
			"scenario %d: fleet insights differ from a single process at workers=%d", idx, fleetShards)
		e.refAds = append(e.refAds, ref.adIDs...)
	}
	rec.check(len(e.outcomes) > warmScenarios, "no measured scenario reached the single-process comparison")
	e.refPlat, e.refMs = plat, scratch.ser.samples("op.deliver")

	counters := e.reg.Snapshot().Counters
	rec.check(counters[coordinator.MetricDayRestarts] == 0 && counters[coordinator.MetricDayRetries] == 0,
		"coordinated days restarted %d times, retried %d times", counters[coordinator.MetricDayRestarts], counters[coordinator.MetricDayRetries])
	return nil
}

func (e *fleetEnv) layers(out map[string]float64) {
	ser := e.rc.ser
	serverSideLayers(out, ser, "router")
	out["marketing.retries"] = float64(clientRetries(e.client))
	counters := e.reg.Snapshot().Counters
	out["marketing.idempotent_replays"] = float64(counters[marketing.MetricIdempotentReplays])
	out["coordinator.day_restarts"] = float64(counters[coordinator.MetricDayRestarts])
	out["coordinator.day_retries"] = float64(counters[coordinator.MetricDayRetries])

	tickRPC := ser.samples("rpc.tick")
	tickSorted := sorted(tickRPC)
	busy := median(ser.samples("shard.tick"))
	out["coordinator.begin_rpc_ms_p50"] = median(ser.samples("rpc.begin"))
	out["coordinator.tick_rpc_ms_p50"] = percentile(tickSorted, 50)
	out["coordinator.tick_rpc_ms_p99"] = percentile(tickSorted, 99)
	out["coordinator.finish_rpc_ms_p50"] = median(ser.samples("rpc.finish"))
	out["coordinator.shard_tick_busy_ms_p50"] = busy
	out["coordinator.tick_overhead_ms_p50"] = percentile(tickSorted, 50) - busy
	// A tick's RPCs all return before the next tick's are sent, so with two
	// shards the samples arrive as consecutive pairs; their difference is
	// how long the faster shard's result waited at the barrier.
	var straggler []float64
	for i := 0; i+1 < len(tickRPC); i += fleetShards {
		straggler = append(straggler, math.Abs(tickRPC[i]-tickRPC[i+1]))
	}
	out["coordinator.tick_straggler_ms_p50"] = median(straggler)
	if days := len(ser.samples("router.deliver")); days > 0 {
		rpcs := len(ser.samples("rpc.begin")) + len(tickRPC) + len(ser.samples("rpc.finish"))
		out["coordinator.rpcs_per_day"] = float64(rpcs) / float64(days)
	}
	out["coordinator.tick_request_bytes"] = ser.mean("shard.request_bytes.tick")
	out["coordinator.tick_response_bytes"] = ser.mean("shard.response_bytes.tick")
	var crud []float64
	for _, op := range []string{"create_audience", "create_campaign", "create_ad"} {
		crud = append(crud, ser.samples("router."+op)...)
	}
	out["coordinator.crud_fanout_ms_p50"] = median(crud)
	out["coordinator.insights_merge_ms_p50"] = median(ser.samples("router.insights"))
	if m := median(e.refMs); m > 0 {
		out["coordinator.fleet_vs_inproc_deliver_ratio"] = median(e.deliverMs) / m
	}

	if e.privatized > 0 {
		out["privacy.suppressed_cells_per_response"] = float64(e.suppressed) / float64(e.privatized)
	}
	out["privacy.apply_us"] = privacyApplyUs(e.refPlat, e.privCfg, e.refAds)
	out["bench.trace_overhead_pct"] = overheadPct(e.traced, e.untraced)

	// One full-pool upload straight into the reference platform: what each
	// shard pays per create_audience.
	_, out["platform.audience_match_us_per_hash"] = audienceMatchUs(e.refPlat, "bench-probe", e.world.hashes)
}
