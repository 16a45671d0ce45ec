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
// repeated runs are bit-identical. Per-user state (frequency counts, reach)
// needs no synchronization at all: a user lives in exactly one shard, so only
// that shard touches the user's slots. The memo tables are shared, and every
// writer of an entry stores the same bits (dayplan.go).

import (
	"math"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/mathrand"
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
// persists across ticks, and per-ad accumulators. It lives in the day's
// arena, and a day that reuses the arena reuses its shards.
type dayShard struct {
	rng    *mathrand.Rand
	live   bool        // charge committed spend per auction instead of at the barrier
	visits []visit     // the shard's rows, in the order the last tick walked them
	accs   []adAcc     // indexed by run index
	hourly []int       // the accumulators' hourly counters, ad after ad
	served []servedRow // buffered rows, until flushServed
	// servedRoom bounds len(served) by the rows the retraining buffer can
	// still take: what is left of it when the shard is built, which is what a
	// session shard can flush at Finish (nothing moves the buffer while a
	// session is open), and what is left at each tick of an in-process day
	// (driveTicks).
	servedRoom int
	auctions   int64
}

// initDayShard makes sh shard `shard` of a `shards`-wide day over the plan,
// keeping its buffers and its generator's register, and gathers its rows.
// The only shard of a 1-shard day is live and draws from the day seed itself
// — the historical sequential stream; every other shard draws from a private
// stream derived from (seed, shard).
func (p *Platform) initDayShard(sh *dayShard, plan *dayPlan, seed int64, shard, shards int) {
	live := shards == 1
	if !live {
		seed = shardSeed(seed, shard)
	}
	if sh.rng == nil {
		sh.rng = mathrand.New(seed)
	} else {
		sh.rng.Seed(seed)
	}
	ticks := p.cfg.Ticks
	*sh = dayShard{
		rng:        sh.rng,
		live:       live,
		visits:     resize(sh.visits, plan.elig.shardLen(shard, shards)),
		accs:       resize(sh.accs, len(plan.active)),
		hourly:     resize(sh.hourly, len(plan.active)*ticks),
		served:     sh.served[:0],
		servedRoom: maxServedLog - len(p.served),
	}
	clear(sh.accs)
	clear(sh.hourly)
	for i := range sh.accs {
		sh.accs[i].hourly = sh.hourly[i*ticks : (i+1)*ticks]
	}
	p.gatherRows(plan, shard, shards, sh.visits)
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

// newDayRun builds shards lo..hi-1 of a `shards`-wide day over the plan, in
// the plan's arena. A run of several shards builds them side by side, a
// goroutine each filling its arena slot, all done before it returns: a shard
// gathers only the rows it owns and draws nothing.
func (p *Platform) newDayRun(plan *dayPlan, seed int64, lo, hi, shards int) *dayRun {
	a := plan.arena
	for len(a.shards) < hi-lo {
		a.shards = append(a.shards, new(dayShard))
		a.reports = append(a.reports, nil)
	}
	run := &dayRun{plan: plan, shards: a.shards[:hi-lo], reports: a.reports[:hi-lo]}
	if p.obsReg != nil {
		run.start = p.clock.Now()
	}
	for s := range run.reports { // every tick writes them before anything reads them
		run.reports[s] = resize(run.reports[s], len(plan.bids))
	}
	if len(run.shards) == 1 {
		p.initDayShard(run.shards[0], plan, seed, lo, shards)
		return run
	}
	var wg sync.WaitGroup
	for s, sh := range run.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.initDayShard(sh, plan, seed, lo+s, shards)
		}()
	}
	wg.Wait()
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
		rows := sh.served[:min(len(sh.served), maxServedLog-len(p.served))]
		p.served = append(growServed(p.served, len(rows)), rows...)
		sh.served = sh.served[:0]
	}
}

// growServed returns log with room for n more rows. When it must grow, its
// new capacity is the smallest maxServedLog/2^k that holds them and at least
// doubles the old one, so a log filled from empty ends at exactly
// maxServedLog, and every array it outgrew together holds less than that.
func growServed(log []servedRow, n int) []servedRow {
	need := len(log) + n
	if need <= cap(log) {
		return log
	}
	size := maxServedLog
	for size/2 >= max(need, 2*cap(log)) {
		size /= 2
	}
	return append(make([]servedRow, 0, size), log...)
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

// shardSeed derives one shard's RNG seed from the day seed: output `shard`
// of the SplitMix64 generator seeded with the day seed, giving
// well-separated streams even for adjacent (seed, shard) pairs. The mapping
// depends only on its inputs, so a fixed (seed, workers) pair always
// reproduces the same streams.
func shardSeed(seed int64, shard int) int64 {
	return int64(mathrand.SplitMix64(uint64(seed) + mathrand.Gamma*uint64(shard)))
}

// tickShard runs one shard's slice of a tick: visit its users in a fresh
// random order (so no ad's spend window correlates with a fixed slice of the
// audience), running each user's sessions. The shuffle permutes the shard's
// visit array in place — the order persists across ticks, starting from
// ascending population order, which is what the committed digests were
// recorded with — and the session draw then scans it front to back; a user
// who has a session is auctioned from the row the visit carries. It only
// reads what is shared (the frozen bids, the CSR index, the tables, filled
// memo entries) and writes its own accumulators, the rows' slots and memo
// entries nobody has filled.
func (p *Platform) tickShard(sh *dayShard, plan *dayPlan, tick int) {
	rng := sh.rng
	shuffleRows(rng, sh.visits)
	for i := range sh.visits {
		v := &sh.visits[i]
		sessions := poisson(rng, v.quiet)
		if sessions == 0 {
			continue
		}
		sh.auctions += int64(sessions)
		for ; sessions > 0; sessions-- {
			p.auction(sh, plan, &v.row, tick)
		}
	}
}

// shuffleRows is rand.Shuffle over the visit array with the swap inline
// instead of behind a closure. It makes rand.Shuffle's draws exactly — for
// each i from the top, math/rand's unexported int31n(i+1): a Uint32, the
// multiply-shift, and the rejection loop under the threshold — so the stream
// and the permutation are the ones the goldens were recorded with
// (TestShuffleRowsIsRandShuffle). A shard holds fewer rows than the int32
// CSR offsets can address, below the 2³¹ where rand.Shuffle switches to
// Int63n.
func shuffleRows(rng *mathrand.Rand, visits []visit) {
	for i := len(visits) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(rng.Uint32()) * uint64(n)
				low = uint32(prod)
			}
		}
		j := prod >> 32
		visits[i], visits[j] = visits[j], visits[i]
	}
}

// expBound[i] bounds math.Exp from above on the i-th bucket of
// [-expBoundRange, expBoundRange), 1/expBoundSteps wide: it is the Exp of the
// bucket's right edge raised by a relative margin of 1e-9. The edges are
// exact in float64 and rounding is monotone, so expUpper never files an x
// under a bucket whose right edge is below it. The margin, millions of ulps,
// covers Exp's last-bit errors and the last-bit difference between amd64's
// FMA and non-FMA Exp, so the bound holds on either path
// (TestExpBoundCoversExp).
var expBound = func() (t [expBoundBuckets]float64) {
	for i := range t {
		t[i] = math.Exp(float64(i+1)/expBoundSteps-expBoundRange) * (1 + 1e-9)
	}
	return t
}()

const (
	expBoundRange   = 16 // the noise exponents expBound covers: |x| < 16
	expBoundSteps   = 16 // buckets per unit of x
	expBoundBuckets = 2 * expBoundRange * expBoundSteps
)

// expUpper returns expBound's bound on math.Exp(x): entry 0 below the
// table's range, and false above it or for NaN, whose Exp must be taken.
func expUpper(x float64) (float64, bool) {
	b := (x + expBoundRange) * expBoundSteps
	if !(b < expBoundBuckets) {
		return 0, false
	}
	i := 0
	if b > 0 {
		i = int(b)
	}
	return expBound[i], true
}

// auction runs one ad slot of the user in `row`: the ads eligible for the
// user (the row's slots lo..hi) compete with each other and with background
// advertiser demand; the winner pays the second price.
//
// A bid whose value cannot be first or second skips its math.Exp, the
// kernel's largest cost, but still draws its noise, so no draw moves. Both
// steps are exact:
//
//   - second starts at bg. best starts at bg and only rises, and a winner
//     is set only where value > best, which moves best into second; so a
//     winner pays second ≥ bg, the larger of bg and the runner-up bid,
//     whatever second started at. Starting it at bg lets a value ≤ bg skip
//     its Exp even before any bid has beaten bg.
//   - A value whose bound value·U cannot beat second is skipped. Rounding
//     is monotone, so with 0 < value and fl(exp x) ≤ U, fl(value·fl(exp x))
//     ≤ fl(value·U) ≤ second, and the loop would not have touched best,
//     second or winner for it (value > second is strict, best ≥ second).
//     An x above expBound's range or NaN takes the exact path; one below
//     it is bounded by entry 0.
func (p *Platform) auction(sh *dayShard, plan *dayPlan, row *planRow, tick int) {
	rng := sh.rng
	key := row.key()
	// Background demand: the highest competing total value for the slot.
	bg := plan.demand[key] * math.Exp(0.45*rng.NormFloat64()-0.10125)
	winner := int32(-1)
	best, second := bg, bg
	// Random starting offset so exact-tie auctions don't systematically
	// favor earlier-created ads.
	lo, hi := row.lo, row.hi
	slot := lo
	if n := hi - lo; n > 1 {
		slot += rng.Int31n(n)
	}
	memo := key * len(plan.active)
	for k := lo; k < hi; k++ {
		at := slot
		if slot++; slot == hi {
			slot = lo
		}
		run := plan.elig.ads[at]
		bid := &plan.bids[run]
		// Past this check pacing > 0, and terms are ≥ 0 (a rate, or a
		// rate's power), so value ≥ adQuality > 0, as the skip needs.
		if bid.pacing <= 0 || bid.spent >= bid.budget || sh.accs[run].tickSpent >= bid.cap {
			continue
		}
		if plan.frequencyCap > 0 && int(plan.shown[at]) >= plan.frequencyCap {
			continue
		}
		entry := &plan.terms[memo+int(run)]
		term := math.Float64frombits(entry.Load())
		if term == 0 {
			term = p.optimizationTerm(plan.active[run], p.pop.View(int(row.user)))
			entry.Store(math.Float64bits(term))
		}
		value := bid.pacing*term + adQuality
		if plan.noise > 0 {
			x := plan.noise*rng.NormFloat64() - plan.noiseShift
			if u, ok := expUpper(x); ok && value*u <= second {
				continue
			}
			value *= math.Exp(x)
		}
		if value > best {
			second = best
			best = value
			winner = at
		} else if value > second {
			second = value
		}
	}
	if winner < 0 {
		return
	}
	run := plan.elig.ads[winner]
	price := second
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
	entry := &plan.clicks[memo+int(run)]
	click := math.Float64frombits(entry.Load())
	if click == 0 {
		click = p.behave.ClickProb(p.pop.View(int(row.user)), ad.Creative.Image)
		entry.Store(math.Float64bits(click))
	}
	clicked := rng.Float64() < click
	if clicked {
		acc.clicks++
	}
	if len(sh.served) < sh.servedRoom {
		sh.served = append(sh.served, servedRow{ad: ad, user: row.user, clicked: clicked})
	}
}

// deliveryRegion returns the state an impression is recorded in: the user's
// home state, or — while traveling — usually some other state, occasionally
// the other study state (the miscount risk §3.3 argues is negligible and
// symmetric).
func deliveryRegion(rng *mathrand.Rand, row *planRow) demo.State {
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
