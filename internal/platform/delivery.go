package platform

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// BreakdownKey is one cell of the insights breakdown: age bucket × gender ×
// delivery region. Region is the state the user was in when the impression
// was served — the quantity the race-measurement methodology reads (§3.3).
type BreakdownKey struct {
	Age    demo.AgeBucket
	Gender demo.Gender
	Region demo.State
}

// AdStats is the delivery report for one ad, mirroring the Insights API's
// advertiser-visible surface: counts only, never user identities (§2.1,
// Reporting).
type AdStats struct {
	AdID        string
	Impressions int
	Reach       int
	Clicks      int
	SpendCents  float64
	Breakdown   map[BreakdownKey]int // impressions per cell
	// HourlySeries is impressions per pacing tick, the shape of spend over
	// the simulated day (real insights expose hourly delivery the same
	// way). Its sum equals Impressions.
	HourlySeries []int

	// RaceOracle counts impressions by the recipient's true self-reported
	// race. It is a simulator-only instrument for validating the §3.3
	// inference methodology (experiment E11) and is never exposed through
	// the marketing API — a real advertiser cannot observe it.
	RaceOracle map[demo.Race]int
}

// clone deep-copies the stats, maps and series included, so callers can
// never reach the engine's live accounting through a returned report.
func (s *AdStats) clone() *AdStats {
	cp := *s
	cp.Breakdown = make(map[BreakdownKey]int, len(s.Breakdown))
	for k, v := range s.Breakdown {
		cp.Breakdown[k] = v
	}
	cp.RaceOracle = make(map[demo.Race]int, len(s.RaceOracle))
	for k, v := range s.RaceOracle {
		cp.RaceOracle[k] = v
	}
	cp.HourlySeries = append([]int(nil), s.HourlySeries...)
	return &cp
}

// Insights returns the delivery report for an ad. It fails for ads that
// have not delivered yet. The returned stats are a deep copy: mutating the
// report (its maps and series included) cannot corrupt the frozen record a
// later Insights call reads.
func (p *Platform) Insights(adID string) (*AdStats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.stats[adID]
	if !ok {
		return nil, fmt.Errorf("platform: no delivery data for ad %q", adID)
	}
	return s.clone(), nil
}

// RunDay delivers all the given ads over one simulated 24-hour window using
// the configured default shard count (Config.DeliveryWorkers). Per the
// audit protocol (§3.2), ads launched together experience the same running
// environment: one shared auction per ad slot. Ads must be Active; rejected
// ads are skipped with their status preserved (the Appendix A analysis
// depends on knowing which were rejected). After the run every delivered ad
// is StatusCompleted and its insights are frozen.
func (p *Platform) RunDay(adIDs []string, seed int64) error {
	return p.RunDayWorkers(adIDs, seed, 0)
}

// RunDayWorkers is RunDay with an explicit shard count; workers <= 0 falls
// back to Config.DeliveryWorkers, and a count outside [1, 64] is refused. It
// is the in-process driver of a day: a fleet that owns every shard, running
// the same tick barrier (PacingController) and shard step (stepShards) a
// coordinated day runs, one goroutine per shard. Output is a pure function
// of (ads, seed, shard count): repeated runs with the same inputs are
// bit-identical, and workers=1 — one live shard drawing from the day seed —
// reproduces the historical sequential output exactly. Different shard
// counts produce statistically equivalent but not identical days, because
// each shard consumes its own RNG stream.
func (p *Platform) RunDayWorkers(adIDs []string, seed int64, workers int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session != nil {
		return fmt.Errorf("platform: coordinated delivery session %q active, cannot run an in-process day", p.session.name)
	}
	if workers <= 0 {
		workers = p.cfg.DeliveryWorkers
	}
	if err := checkShardCount(workers); err != nil {
		return err
	}
	plan, err := p.prepareDay(adIDs)
	if err != nil {
		return err
	}
	ctrl, err := NewPacingController(p.dayInit("", plan), workers)
	if err != nil {
		return err
	}
	run := p.newDayRun(plan, seed, 0, workers, workers)
	if err := p.driveTicks(run, ctrl); err != nil {
		return err
	}
	p.finishDay(run, ctrl.SpendCents(), &DeliveryState{Seed: seed, Workers: workers})
	return nil
}

// driveTicks runs every tick of an in-process day: the barrier's directives,
// the shard step on all of the run's shards, the barrier's commit. The caller
// holds p.mu for writing for the whole day; parallelism lives entirely inside
// stepShards.
//
// Because the lock is held throughout, nothing but this loop's own flush moves
// the retraining buffer, so the room it has at the start of a tick is exact,
// and flushes being in shard order no shard can land more rows than that:
// shards stop buffering there. A long-lived platform's buffer is full, and
// its days then buffer nothing.
func (p *Platform) driveTicks(run *dayRun, ctrl *PacingController) error {
	timed := p.obsReg != nil && len(run.shards) > 1
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		for _, sh := range run.shards {
			sh.servedRoom = maxServedLog - len(p.served)
		}
		p.stepShards(run, tick, ctrl.TickDirectives(tick))
		var commitStart time.Time
		if timed {
			commitStart = p.clock.Now()
		}
		if err := ctrl.CommitTick(run.reports); err != nil {
			return err
		}
		// An in-process day flushes its serve log at every barrier, a session
		// once at Finish; the committed digests were recorded that way.
		p.flushServed(run)
		if timed {
			run.merge += p.clock.Now().Sub(commitStart)
		}
	}
	return nil
}

// finishDay is the end of a day for the shards this process owns. It turns
// them into the ads' frozen insights — fresh reports filled from the shards'
// accumulators and stamped with the barrier's authoritative per-ad spend —
// completes the ads, emits the one mutation that commits the whole day (so a
// recovered platform reports it identically), flushes what is left of the
// serve log and records the day's metrics. The caller holds p.mu for writing.
func (p *Platform) finishDay(run *dayRun, spendCents []float64, del *DeliveryState) {
	active := run.plan.active
	for _, ad := range active {
		p.stats[ad.ID] = p.newAdStats(ad.ID)
	}
	for _, sh := range run.shards {
		sh.foldInto(p.stats, active)
	}
	var impressions int64
	for i, ad := range active {
		ad.Status = StatusCompleted
		st := p.stats[ad.ID]
		st.SpendCents = spendCents[i]
		impressions += int64(st.Impressions)
	}
	p.emit(func() Mutation {
		for _, ad := range active {
			del.Completed = append(del.Completed, ad.ID)
			del.Stats = append(del.Stats, *adStatsState(p.stats[ad.ID]))
		}
		sortDeliveryState(del)
		return Mutation{Kind: MutDayDelivered, Delivery: del}
	})
	p.flushServed(run)
	p.observeDelivery(run.start, int64(p.cfg.Ticks), run.auctions(), impressions, del.Workers, run.merge)
}

// prepareDay resolves a delivery request into the day plan: the run's active
// ad set, its CSR eligibility index with the slot-aligned frequency counters,
// the empty memo tables, and every ad's starting bid state (zeroed spend,
// starting pacing).
// It is shared by RunDayWorkers and the coordinated day session
// (delivery_session.go) and consumes no randomness, so every shard of a
// coordinated day derives the identical plan from the same CRUD state. The
// caller holds p.mu for writing.
func (p *Platform) prepareDay(adIDs []string) (*dayPlan, error) {
	var active []*Ad
	for _, id := range adIDs {
		ad, err := p.adLocked(id)
		if err != nil {
			return nil, err
		}
		switch ad.Status {
		case StatusActive:
			ad.runIdx = len(active)
			active = append(active, ad)
		case StatusRejected:
			// Skipped, not an error.
		default:
			return nil, fmt.Errorf("platform: ad %s is %v, cannot deliver", id, ad.Status)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("platform: no active ads to deliver")
	}
	bids := make([]adBid, len(active))
	for i, ad := range active {
		// Per-ad day state is addressed by run index, so an ad cannot hold
		// two of them: listed twice, it kept only the later index.
		if ad.runIdx != i {
			return nil, fmt.Errorf("platform: ad %s listed twice in one delivery request", ad.ID)
		}
		// Start the effective bid so that bid × (typical optimization term)
		// lands near the competing demand level; the pacing controller
		// refines from there. Without this, reach-optimized ads (term = 1)
		// would burn their budget at eAR-scaled bids ~25× too high.
		meanTerm := p.meanOptimizationTerm(ad)
		bids[i] = adBid{
			pacing: math.Min(math.Max(2*p.cfg.CompetitionBase/meanTerm, 0.005), 50),
			budget: float64(ad.DailyBudgetCents) / 100,
		}
	}
	return p.newDayPlan(active, bids), nil
}

// dayInit reports a prepared plan the way a shard backend reports it to its
// coordinator: the pacing-relevant configuration and, in run order, every
// active ad's budget and starting bid — what a PacingController is built from.
func (p *Platform) dayInit(session string, plan *dayPlan) *DayInit {
	init := &DayInit{
		Session: session,
		Ticks:   p.cfg.Ticks,
		Greedy:  p.cfg.GreedyPacing,
		Ads:     make([]DayAdPlan, len(plan.active)),
	}
	for i, ad := range plan.active {
		init.Ads[i] = DayAdPlan{AdID: ad.ID, DailyBudgetCents: ad.DailyBudgetCents, Pacing: plan.bids[i].pacing}
	}
	return init
}

// newAdStats allocates an empty delivery report sized for the configured
// tick count; the caller holds p.mu.
func (p *Platform) newAdStats(adID string) *AdStats {
	return &AdStats{
		AdID:         adID,
		Breakdown:    map[BreakdownKey]int{},
		RaceOracle:   map[demo.Race]int{},
		HourlySeries: make([]int, p.cfg.Ticks),
	}
}

// optimizationTerm computes the per-user multiplier the delivery objective
// applies to the paced bid (§2.1). Awareness maximizes reach, so it ignores
// the estimated action rate entirely; Traffic bids proportionally to eAR;
// Conversions — the highest-intent objective — applies a sharper exponent,
// concentrating delivery even harder on the users the model scores highest.
// The paper ran everything under Traffic; experiment E13 varies this.
func (p *Platform) optimizationTerm(ad *Ad, u population.UserView) float64 {
	if !p.cfg.UseEAR || ad.Objective == ObjectiveAwareness {
		return 1
	}
	ear := ad.folded.rate(u)
	if ad.Objective == ObjectiveConversions {
		// ear^1.6, rescaled so a typical base rate keeps comparable
		// magnitude and pacing dynamics.
		return math.Pow(ear, 1.6) * 4
	}
	return ear
}

// meanOptimizationTerm estimates an ad's typical optimization term over a
// sample of its audience, for bid initialization.
func (p *Platform) meanOptimizationTerm(ad *Ad) float64 {
	n := len(ad.audience)
	if n == 0 {
		return 1
	}
	step := n/200 + 1
	var sum float64
	var count int
	for i := 0; i < n; i += step {
		sum += p.optimizationTerm(ad, p.pop.View(int(ad.audience[i])))
		count++
	}
	if count == 0 || sum <= 0 {
		return 1
	}
	return sum / float64(count)
}

// sessionThreshold converts a user's per-tick session rate into the stop
// threshold exp(-lambda) of Knuth's Poisson method, computed once per user
// per day rather than once per tick; a rate that is not positive yields
// noSessions.
func sessionThreshold(lambda float64) float64 {
	if lambda <= 0 {
		return noSessions
	}
	return math.Exp(-lambda)
}

// noSessions is the threshold of a user who never has a session: poisson
// draws nothing for it. exp(-lambda) of a positive lambda never exceeds 1.
const noSessions = 2

// poisson draws a Poisson variate by Knuth's method, given its threshold;
// efficient for the small per-tick session rates used here.
func poisson(rng *rand.Rand, l float64) int {
	if l == noSessions {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
