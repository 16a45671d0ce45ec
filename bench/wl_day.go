package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// Sizing of the day workloads: a 1M-user world (2 × 785 000 voters at the
// ~0.64 effective match rate, adpopbench's "1m" scale) and one 40 000-user
// custom audience drawn by stride, so every day auctions the same users.
const (
	dayVotersPerState = 785_000
	dayAudience       = 40_000
	dayStreamChunk    = 65536
	dayBudgetCents    = 2_000_000 // far above the market ceiling: pacing, not exhaustion, shapes the day
	// dayPollsPerAd: a direct Platform.Insights read takes a few microseconds,
	// so the day workload polls often enough (4 ads x 250) for the read phase
	// of a unit to last milliseconds, which the CPU clock can resolve.
	dayPollsPerAd = 250
)

// dayEnv is the in-process delivery engine over a large world. The untraced
// pass measures the sequential kernel (auction, workers=1); the traced pass
// also drives the sharded one (shardAuction, workers=2).
type dayEnv struct {
	rc    *runCtx
	p     *platform.Platform
	caID  string
	users int // matched audience size
	days  int // ad sets created so far; also numbers sessions
	ticks int // pacing ticks in a day, as the session API reports them

	day0Digest string // digest of the first measured sequential day, for the repeat and golden gates

	// traced-pass samples
	prepareMs, finishMs, tickMs, pacingUs []float64
	seqMs, w2Ms, sessionMs, allocMB       []float64
	auctions, impressions                 int64 // of the first session day: exact for a seed
	tickNs                                int64
	tickAuctions                          int64
	reg                                   *obs.Registry
}

func setupDay(rc *runCtx) (env, error) {
	seed := rc.cfg.seed
	fl := voter.DefaultGeneratorConfig(demo.StateFL, seed+1)
	fl.NumVoters = dayVotersPerState
	nc := voter.DefaultGeneratorConfig(demo.StateNC, seed+2)
	nc.NumVoters = dayVotersPerState
	start := time.Now()
	pop, err := population.Stream(population.Config{Seed: seed + 3}, dayStreamChunk, fl, nc)
	if err != nil {
		return nil, err
	}
	rc.layer["population.stream_users_per_s"] = float64(pop.Len()) / time.Since(start).Seconds()
	rc.layer["population.bytes_per_user"] = float64(pop.MemoryBytes()) / float64(pop.Len())
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	p, err := newPlatform(pop, behave, seed)
	if err != nil {
		return nil, err
	}
	rc.layer["platform.new_s"] = time.Since(start).Seconds()

	stride := max(pop.Len()/dayAudience, 1)
	hashes := make([]string, 0, dayAudience)
	for i := 0; i < pop.Len() && len(hashes) < dayAudience; i += stride {
		hashes = append(hashes, pop.View(i).PIIKey())
	}
	ca, matchUs := audienceMatchUs(p, "bench", hashes)
	if ca == nil {
		return nil, fmt.Errorf("matching the %d-hash audience failed", len(hashes))
	}
	rc.layer["platform.audience_match_us_per_hash"] = matchUs
	return &dayEnv{rc: rc, p: p, caID: ca.ID, users: ca.Size, reg: obs.NewRegistry()}, nil
}

func (e *dayEnv) close() {}

// adSet creates a campaign and the four paired ads, each creation one
// mutation, and returns the ad IDs in creation order. rec may be a throwaway.
func (e *dayEnv) adSet(rec *recorder) ([]string, error) {
	e.days++
	var cmp *platform.Campaign
	if err := rec.timed(verbMutation, func() (err error) {
		cmp, err = e.p.CreateCampaign(fmt.Sprintf("bench-%d", e.days), platform.ObjectiveTraffic, platform.SpecialNone, 2019)
		return err
	}); err != nil {
		return nil, err
	}
	targeting := platform.Targeting{CustomAudienceIDs: []string{e.caID}}
	ids := make([]string, 0, len(fourProfiles))
	for _, prof := range fourProfiles {
		creative := platform.Creative{Image: image.FromProfile(prof), Headline: "h", LinkURL: "https://example.com"}
		var ad *platform.Ad
		if err := rec.timed(verbMutation, func() (err error) {
			ad, err = e.p.CreateAd(cmp.ID, creative, targeting, dayBudgetCents)
			return err
		}); err != nil {
			return nil, err
		}
		ids = append(ids, ad.ID)
	}
	return ids, nil
}

// readAll polls every ad's insights dayPollsPerAd times, each read one
// operation.
func (e *dayEnv) readAll(rec *recorder, ids []string) error {
	for p := 0; p < dayPollsPerAd; p++ {
		for _, id := range ids {
			if err := rec.timed(verbInsights, func() error {
				_, err := e.p.Insights(id)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// daySeed is the delivery seed of day i of this run.
func (e *dayEnv) daySeed(i int) int64 { return e.rc.cfg.seed*1000 + int64(i) }

// directDay is one unit of work: a fresh ad set (created outside the day's
// timer), one RunDayWorkers day, the polls. Digesting happens after the unit.
func (e *dayEnv) directDay(rec *recorder, seed int64, workers int) (ids []string, dayMs float64, err error) {
	start := time.Now()
	cpu := rec.beginUnit()
	if ids, err = e.adSet(rec); err != nil {
		return nil, 0, err
	}
	cpu.done(verbMutation, 1+len(ids))
	dayStart := time.Now()
	err = e.p.RunDayWorkers(ids, seed, workers)
	d := time.Since(dayStart)
	rec.op(verbDeliver, d, err)
	if err != nil {
		return nil, 0, err
	}
	cpu.done(verbDeliver, 1)
	if err = e.readAll(rec, ids); err != nil {
		return nil, 0, err
	}
	cpu.done(verbInsights, dayPollsPerAd*len(ids))
	cpu.end(time.Since(start))
	return ids, float64(d) / float64(time.Millisecond), nil
}

// sessionDay drives one sequential day through the session API, the way the
// coordinator does for a 1-shard fleet, so each phase is timed from outside:
// BeginDaySession (resolve + CSR eligibility build), per tick the pacing
// controller and DaySessionTick, then FinishDaySession. Its output must
// equal RunDayWorkers(ids, seed, 1).
func (e *dayEnv) sessionDay(ids []string, seed int64, tr *tracer) (auctions int64, err error) {
	trace := int64(e.days)
	name := fmt.Sprintf("bench-day-%d", e.days)
	root := tr.begin(trace, 0, "day")
	defer root.end()
	phase := func(name string, into *[]float64, unit time.Duration, f func() error) error {
		sp := tr.begin(trace, root.id(), name)
		start := time.Now()
		err := f()
		d := time.Since(start)
		sp.end()
		*into = append(*into, float64(d)/float64(unit))
		return err
	}

	var init *platform.DayInit
	if err := phase("platform prepare", &e.prepareMs, time.Millisecond, func() (err error) {
		init, err = e.p.BeginDaySession(name, ids, seed, 0, 1)
		return err
	}); err != nil {
		return 0, err
	}
	// A session that does not reach its finish must not outlive this call:
	// RunDayWorkers refuses to run while one is open.
	defer func() {
		if err != nil {
			_ = e.p.AbortDaySession(name) // the day already failed; its error is the one to report
		}
	}()
	ctrl, err := platform.NewPacingController(init, 1)
	if err != nil {
		return 0, err
	}
	e.ticks = ctrl.Ticks()
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		var dirs []platform.TickDirective
		var rep *platform.TickReport
		var pacing []float64
		_ = phase("platform pacing", &pacing, time.Microsecond, func() error {
			dirs = ctrl.TickDirectives(tick)
			return nil
		})
		tickStart := time.Now()
		if err := phase("platform tick", &e.tickMs, time.Millisecond, func() (err error) {
			rep, err = e.p.DaySessionTick(name, tick, dirs)
			return err
		}); err != nil {
			return 0, err
		}
		e.tickNs += int64(time.Since(tickStart))
		if err := phase("platform pacing", &pacing, time.Microsecond, func() error {
			return ctrl.CommitTick([][]float64{rep.Spent})
		}); err != nil {
			return 0, err
		}
		e.pacingUs = append(e.pacingUs, pacing[0]+pacing[1])
		auctions += rep.Auctions
	}
	e.tickAuctions += auctions
	err = phase("platform finish", &e.finishMs, time.Millisecond, func() error {
		return e.p.FinishDaySession(name, ctrl.SpendCents())
	})
	return auctions, err
}

// warm runs days until the platform's served-impression log (200 000 rows)
// is full: until then every impression also appends to it, which later days
// do not pay.
func (e *dayEnv) warm() error {
	scratch := &recorder{}
	for before := -1; e.p.ServedLogSize() > before; {
		before = e.p.ServedLogSize()
		if _, _, err := e.directDay(scratch, e.daySeed(-1), 1); err != nil {
			return err
		}
	}
	return nil
}

func (e *dayEnv) measure(deadline time.Time) error {
	rec := e.rc.rec
	for i := 0; time.Now().Before(deadline); i++ {
		seed := e.daySeed(i)
		if !e.rc.cfg.trace {
			ids, _, err := e.directDay(rec, seed, 1)
			if err != nil {
				return err
			}
			if i == 0 {
				if e.day0Digest, _, err = insightsDigest(e.p, ids); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.tracedCycle(i, seed); err != nil {
			return err
		}
	}
	return nil
}

// tracedCycle is one iteration of the traced pass: a direct sequential day
// (the untraced reference, and the one that feeds the wall-clock and tail
// metrics), the same day through the session API with a span per phase, and a
// sharded day at workers=2 with the platform's observer registry installed.
func (e *dayEnv) tracedCycle(i int, seed int64) error {
	scratch := &recorder{}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seqIDs, seqMs, err := e.directDay(e.rc.rec, seed, 1)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	e.seqMs = append(e.seqMs, seqMs)
	e.allocMB = append(e.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	want, impressions, err := insightsDigest(e.p, seqIDs)
	if err != nil {
		return err
	}

	ids, err := e.adSet(scratch)
	if err != nil {
		return err
	}
	start := time.Now()
	auctions, err := e.sessionDay(ids, seed, e.rc.tr)
	if err != nil {
		return err
	}
	e.sessionMs = append(e.sessionMs, float64(time.Since(start))/float64(time.Millisecond))
	got, _, err := insightsDigest(e.p, ids)
	if err != nil {
		return err
	}
	e.rc.rec.check(got == want, "day %d: session-driven digest %s != RunDayWorkers(…,1) digest %s", i, got, want)
	if i == 0 {
		e.auctions, e.impressions = auctions, impressions
		e.day0Digest = want
	}

	e.p.SetObserver(e.reg, nil)
	_, w2Ms, err := e.directDay(scratch, seed, 2)
	e.p.SetObserver(nil, nil)
	if err != nil {
		return err
	}
	e.w2Ms = append(e.w2Ms, w2Ms)
	return nil
}

// verify: equal (seed, workers) must give equal digests, sequential and
// sharded; for the golden seed both must equal bench/golden.json; and a
// session-driven day must equal the sequential oracle (the traced pass
// checks that every cycle, the untraced pass once here).
func (e *dayEnv) verify() error {
	scratch := &recorder{}
	seed := e.daySeed(0)
	digestOf := func(workers int) (string, error) {
		ids, _, err := e.directDay(scratch, seed, workers)
		if err != nil {
			return "", err
		}
		d, _, err := insightsDigest(e.p, ids)
		return d, err
	}
	seq, err := digestOf(1)
	if err != nil {
		return err
	}
	e.rc.rec.check(seq == e.day0Digest, "repeat of day 0 at workers=1: digest %s != %s", seq, e.day0Digest)
	checkGolden(e.rc, onDay, e.day0Digest)
	w2, err := digestOf(2)
	if err != nil {
		return err
	}
	again, err := digestOf(2)
	if err != nil {
		return err
	}
	e.rc.rec.check(again == w2, "repeat of day 0 at workers=2: digest %s != %s", again, w2)
	checkGolden(e.rc, goldenDayW2, w2)
	if e.rc.cfg.trace {
		return nil
	}

	ids, err := e.adSet(scratch)
	if err != nil {
		return err
	}
	if _, err = e.sessionDay(ids, seed, nil); err != nil {
		return err
	}
	got, _, err := insightsDigest(e.p, ids)
	if err != nil {
		return err
	}
	e.rc.rec.check(got == seq, "session-driven digest %s != RunDayWorkers(…,1) digest %s", got, seq)
	return nil
}

func (e *dayEnv) layers(out map[string]float64) {
	userTicks := float64(e.users * e.ticks)
	out["platform.day_prepare_ms"] = median(e.prepareMs)
	out["platform.day_tick_ms_p50"] = median(e.tickMs)
	out["platform.day_finish_ms"] = median(e.finishMs)
	out["platform.pacing_us_per_tick"] = median(e.pacingUs)
	if e.tickAuctions > 0 {
		out["platform.ns_per_auction"] = float64(e.tickNs) / float64(e.tickAuctions)
	}
	out["platform.w2_merge_ms_per_day"] = float64(e.reg.Histogram(platform.MetricDeliveryMergeLatency).Mean()) / float64(time.Millisecond)
	if m := median(e.w2Ms); m > 0 {
		out["platform.w2_speedup"] = median(e.seqMs) / m
		out["day_w2_user_ticks_per_s"] = userTicks / (m / 1000)
	}
	if m := median(e.seqMs); m > 0 {
		out["day_seq_user_ticks_per_s"] = userTicks / (m / 1000)
	}
	out["platform.auctions_per_day"] = float64(e.auctions)
	out["platform.impressions_per_day"] = float64(e.impressions)
	out["platform.day_alloc_mb"] = median(e.allocMB)
	out["platform.insights_read_us"] = 1000 * median(e.rc.rec.verbs[verbInsights])
	out["bench.trace_overhead_pct"] = overheadPct(e.sessionMs, e.seqMs)
}
