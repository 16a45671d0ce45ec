package platform

// The auction kernel, the shard it runs over, and the tick step every driver
// of a day calls. A delivery day's rows (the targeted users, as positions in
// the day's CSR eligibility index) are partitioned into deterministic shards;
// each shard runs its tick's auctions with its own RNG stream and
// thread-local accumulators over the shared dayPlan. A process holds the
// shards it owns in a dayRun — all of them in process (RunDayWorkers), one as
// a backend of a coordinated fleet day (delivery_session.go) — and the runs
// differ only in how an impression is charged:
//
//	live    (the shard of a 1-shard day) the winner's committed spend moves
//	        at once, truncated at the daily budget, so the next auction
//	        already sees it;
//	frozen  (every multi-shard day) spend accrues in the shard's accumulator
//	        and nothing shared moves until the tick barrier.
//
// A tick is two-phase budget pacing around a barrier (pacing.go):
//
//	phase 1 (PacingController.TickDirectives): the controller updates every
//	  ad's effective bid from the *committed* spend and slices the tick's
//	  spend cap per shard;
//	phase 2 (stepShards, parallel): shards bid against that frozen
//	  tick-start snapshot (dayPlan.bids never moves mid-tick unless the
//	  shard is live), accruing spend and stats locally, and report it;
//	phase 3 (PacingController.CommitTick): reported spend commits in shard
//	  order — fixed floating-point addition order — clamped so the daily
//	  budget is never exceeded.
//
// That makes the day's output a pure function of (ads, seed, shard count):
// repeated runs are bit-identical. Per-user state (frequency counts, reach,
// the score memo) needs no synchronization at all: a user lives in exactly
// one shard, so only that shard touches the user's slots.

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// adAcc is one ad's accumulator inside one shard. Spend is drained at every
// tick barrier; the counts fold into the ad's report once at day end.
type adAcc struct {
	tickSpent   float64 // spend accrued this tick
	impressions int
	clicks      int
	reach       int
	hourly      []int
	cells       [numCells]int
	race        [numRaces]int
}

// dayShard owns a disjoint slice of the day's rows, a private RNG stream that
// persists across ticks, and per-ad accumulators.
type dayShard struct {
	rng      *rand.Rand
	live     bool        // charge committed spend per auction instead of at the barrier
	order    []int32     // row positions into the plan's eligIndex
	accs     []adAcc     // indexed by run index
	served   []servedRow // buffered rows, until flushServed
	auctions int64
}

// newDayShard builds shard `shard` of a `shards`-wide day over the plan and
// gathers its rows. The only shard of a 1-shard day is live and draws from
// the day seed itself — the historical sequential stream; every other shard
// draws from a private stream derived from (seed, shard).
func (p *Platform) newDayShard(plan *dayPlan, seed int64, shard, shards int) *dayShard {
	live := shards == 1
	if !live {
		seed = shardSeed(seed, shard)
	}
	sh := &dayShard{
		rng:   rand.New(rand.NewSource(seed)),
		live:  live,
		order: plan.elig.shardRows(shard, shards),
		accs:  make([]adAcc, len(plan.active)),
	}
	ticks := p.cfg.Ticks
	hourly := make([]int, len(sh.accs)*ticks)
	for i := range sh.accs {
		sh.accs[i].hourly = hourly[i*ticks : (i+1)*ticks]
	}
	p.gatherRows(plan, sh.order)
	return sh
}

// dayRun is one process's part of a delivery day: the plan, the shards of the
// day it owns, and per owned shard the spend vector its last tick reported.
type dayRun struct {
	plan    *dayPlan
	shards  []*dayShard
	reports [][]float64 // by owned shard, then by run index; reused every tick
	// Observer readings, zero without an observer: the clock at construction,
	// and the time an in-process multi-shard day spent in barrier commits.
	start time.Time
	merge time.Duration
}

// newDayRun builds shards lo..hi-1 of a `shards`-wide day over the plan.
func (p *Platform) newDayRun(plan *dayPlan, seed int64, lo, hi, shards int) *dayRun {
	run := &dayRun{plan: plan, shards: make([]*dayShard, hi-lo), reports: make([][]float64, hi-lo)}
	if p.obsReg != nil {
		run.start = p.clock.Now()
	}
	for s := range run.shards {
		run.shards[s] = p.newDayShard(plan, seed, lo+s, shards)
		run.reports[s] = make([]float64, len(plan.bids))
	}
	return run
}

// auctions is the number of ad slots the run's shards have auctioned so far.
func (run *dayRun) auctions() (n int64) {
	for _, sh := range run.shards {
		n += sh.auctions
	}
	return n
}

// stepShards is phase 2 of a tick on every shard the run owns: freeze the
// barrier's directives (one per ad, in run order) into the bids, run the
// shards — inline for one, otherwise a goroutine per shard — and drain each
// shard's spend into its report vector. A frozen shard reports what it
// accrued this tick; the live shard has charged the bids auction by auction,
// so it reports their committed totals. Nothing shared moves until every
// shard has parked, so the commit that follows needs no locking.
func (p *Platform) stepShards(run *dayRun, tick int, dirs []TickDirective) {
	plan, bids := run.plan, run.plan.bids
	for i := range bids {
		bids[i].pacing, bids[i].spent, bids[i].cap = dirs[i].Pacing, dirs[i].Spent, dirs[i].Cap
	}
	if len(run.shards) == 1 {
		p.tickShard(run.shards[0], plan, tick)
	} else {
		var wg sync.WaitGroup
		for _, sh := range run.shards {
			wg.Add(1)
			go func(sh *dayShard) {
				defer wg.Done()
				p.tickShard(sh, plan, tick)
			}(sh)
		}
		wg.Wait()
	}
	for s, sh := range run.shards {
		for i := range bids {
			run.reports[s][i] = sh.accs[i].tickSpent
			if sh.live {
				run.reports[s][i] = bids[i].spent
			}
			sh.accs[i].tickSpent = 0
		}
	}
}

// flushServed moves the shards' buffered serve-log rows into the retraining
// buffer, in shard order, so the buffer (and its maxServedLog truncation
// point) is deterministic.
func (p *Platform) flushServed(run *dayRun) {
	for _, sh := range run.shards {
		for _, row := range sh.served {
			p.recordServed(row.userIdx, row.ad, row.clicked)
		}
		sh.served = sh.served[:0]
	}
}

// foldInto adds the shard's day-end counts to the ads' reports. Every field
// is an integer sum, so the result does not depend on the order shards fold
// in; reach adds because shards own disjoint users. Cells nobody was served
// in stay absent from the maps.
func (sh *dayShard) foldInto(stats map[string]*AdStats, active []*Ad) {
	for i := range sh.accs {
		acc := &sh.accs[i]
		st := stats[active[i].ID]
		st.Impressions += acc.impressions
		st.Clicks += acc.clicks
		st.Reach += acc.reach
		for t, v := range acc.hourly {
			st.HourlySeries[t] += v
		}
		for c, v := range acc.cells {
			if v != 0 {
				st.Breakdown[cellKey(c)] += v
			}
		}
		for r, v := range acc.race {
			if v != 0 {
				st.RaceOracle[demo.Race(r)] += v
			}
		}
	}
}

// shardSeed derives one shard's RNG seed from the day seed with a
// splitmix64-style mixer, giving well-separated streams even for adjacent
// (seed, shard) pairs. The mapping depends only on its inputs, so a fixed
// (seed, workers) pair always reproduces the same streams.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// tickShard runs one shard's slice of a tick: visit its users in a fresh
// random order (so no ad's spend window correlates with a fixed slice of the
// audience), running each user's sessions. The shuffle permutes the shard's
// row positions in place — the order persists across ticks, starting from
// ascending population order, which is what the committed digests were
// recorded with. It only reads what is shared (the frozen bids, the
// population columns, the CSR index) and writes its own accumulators and the
// slots of its own rows.
func (p *Platform) tickShard(sh *dayShard, plan *dayPlan, tick int) {
	rng, order := sh.rng, sh.order
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	offsets := plan.elig.offsets
	for _, pos := range order {
		row := &plan.rows[pos]
		sessions := poisson(rng, row.quiet)
		sh.auctions += int64(sessions)
		for s := 0; s < sessions; s++ {
			p.auction(sh, plan, row, offsets[pos], offsets[pos+1], tick)
		}
	}
}

// auction runs one ad slot of the user in `row`: the ads eligible for the
// user (slots lo..hi of the plan) compete with each other and with background
// advertiser demand; the winner pays the second price.
func (p *Platform) auction(sh *dayShard, plan *dayPlan, row *planRow, lo, hi int32, tick int) {
	rng := sh.rng
	// Background demand: the highest competing total value for the slot.
	bg := row.demand * math.Exp(0.45*rng.NormFloat64()-0.10125)
	winner := int32(-1)
	best, second := bg, 0.0
	// Random starting offset so exact-tie auctions don't systematically
	// favor earlier-created ads.
	n := hi - lo
	off := int32(0)
	if n > 1 {
		off = int32(rng.Intn(int(n)))
	}
	for k := int32(0); k < n; k++ {
		slot := lo + (k+off)%n
		run := plan.elig.ads[slot]
		bid := &plan.bids[run]
		if bid.pacing <= 0 || bid.spent >= bid.budget || sh.accs[run].tickSpent >= bid.cap {
			continue
		}
		if p.cfg.FrequencyCap > 0 && int(plan.shown[slot]) >= p.cfg.FrequencyCap {
			continue
		}
		term := plan.score[slot]
		if term == 0 {
			term = p.optimizationTerm(plan.active[run], p.pop.View(int(row.user)))
			plan.score[slot] = term
		}
		value := bid.pacing*term + p.cfg.Quality
		if p.cfg.ValueNoise > 0 {
			sigma := p.cfg.ValueNoise
			value *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
		}
		if value > best {
			second = best
			best = value
			winner = slot
		} else if value > second {
			second = value
		}
	}
	if winner < 0 {
		return
	}
	run := plan.elig.ads[winner]
	price := math.Max(second, bg)
	if sh.live {
		// Overspend clamp: never charge past the daily budget, making
		// SpendCents ≤ DailyBudgetCents an engine invariant. The clamp cannot
		// change any auction outcome or RNG draw: it only truncates the
		// single budget-crossing price, and after that charge the ad is
		// ineligible (spent >= budget) whether or not the charge was clamped.
		bid := &plan.bids[run]
		if bid.spent+price > bid.budget {
			price = bid.budget - bid.spent
		}
		bid.spent += price
	}
	acc := &sh.accs[run]
	acc.tickSpent += price
	acc.impressions++
	acc.hourly[tick]++
	acc.cells[int(row.cell)+int(deliveryRegion(rng, row))]++
	acc.race[row.race]++
	if plan.shown[winner] == 0 {
		acc.reach++
	}
	if plan.shown[winner] < maxFrequencyCap {
		plan.shown[winner]++
	}
	// Traffic objective: record clicks from ground-truth behaviour and log
	// the served impression into the retraining buffer — the feedback loop
	// Retrain closes.
	ad := plan.active[run]
	clicked := rng.Float64() < p.behave.ClickProb(p.pop.View(int(row.user)), ad.Creative.Image)
	if clicked {
		acc.clicks++
	}
	sh.served = append(sh.served, servedRow{userIdx: int(row.user), ad: ad, clicked: clicked})
}

// deliveryRegion returns the state an impression is recorded in: the user's
// home state, or — while traveling — usually some other state, occasionally
// the other study state (the miscount risk §3.3 argues is negligible and
// symmetric).
func deliveryRegion(rng *rand.Rand, row *planRow) demo.State {
	if rng.Float64() >= row.travel {
		return row.home
	}
	if rng.Float64() < 0.1 {
		if row.home == demo.StateFL {
			return demo.StateNC
		}
		return demo.StateFL
	}
	return demo.StateOther
}
