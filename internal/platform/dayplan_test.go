package platform

// Property tests of the day plan and the auction kernel against a test-only
// oracle: the delivery day as it was written before the plan existed — maps
// keyed by ad and user, every pure function of (user, ad) recomputed at every
// auction, the population read column by column — run over randomised days
// (frequency caps on and off, tight and loose budgets, greedy pacing, a
// constant eAR term, overlapping audiences, 1 to 3 shards). The goldens pin a
// handful of days forever; this pins the equivalence itself.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// oracleAd is one ad's state and report in the oracle day.
type oracleAd struct {
	ad                         *Ad
	pacing, spent, budget, cap float64
	impressions, clicks        int
	hourly                     []int
	breakdown                  map[BreakdownKey]int
	race                       map[demo.Race]int
	shown                      map[int]int // impressions per user: its keys are the reach set
}

// oracleDay delivers the active ads over `shards` shards with the map-based
// engine and returns the per-ad state in run order. Shards of a tick run one
// after another: they share nothing until the barrier, so that is the same
// day the goroutines produce.
func oracleDay(p *Platform, active []*Ad, seed int64, shards int) []*oracleAd {
	ticks := p.cfg.Ticks
	ads := make([]*oracleAd, len(active))
	adsByUser := map[int][]int{}
	for i, ad := range active {
		ads[i] = &oracleAd{
			ad:        ad,
			pacing:    math.Min(math.Max(2*p.cfg.CompetitionBase/p.meanOptimizationTerm(ad), 0.005), 50),
			budget:    float64(ad.DailyBudgetCents) / 100,
			hourly:    make([]int, ticks),
			breakdown: map[BreakdownKey]int{},
			race:      map[demo.Race]int{},
			shown:     map[int]int{},
		}
		for _, idx := range ad.audience {
			adsByUser[int(idx)] = append(adsByUser[int(idx)], i)
		}
	}
	users := make([]int, 0, len(adsByUser))
	for idx := range adsByUser {
		users = append(users, idx)
	}
	sort.Ints(users)

	live := shards == 1
	rngs := make([]*rand.Rand, shards)
	orders := make([][]int, shards)
	tickSpent := make([][]float64, shards)
	for s := range rngs {
		rngs[s] = rand.New(rand.NewSource(shardSeed(seed, s)))
		if live {
			rngs[s] = rand.New(rand.NewSource(seed))
		}
		for pos := s; pos < len(users); pos += shards {
			orders[s] = append(orders[s], users[pos])
		}
		tickSpent[s] = make([]float64, len(ads))
	}

	auction := func(s, tick, uid int) {
		rng := rngs[s]
		u := p.pop.View(uid)
		ageFactor := 1.0
		if age := u.Age(); age < 65 {
			ageFactor += p.cfg.CompetitionAgeSlope * float64(65-age) / 47
		}
		raceFactor := 1.0
		if u.Race() == demo.RaceWhite {
			raceFactor += p.cfg.CompetitionWhitePremium
		}
		bg := p.cfg.CompetitionBase * ageFactor * raceFactor * math.Exp(0.45*rng.NormFloat64()-0.10125)
		var winner *oracleAd
		winnerIdx := -1
		best, second := bg, 0.0
		eligible := adsByUser[uid]
		off := 0
		if len(eligible) > 1 {
			off = rng.Intn(len(eligible))
		}
		for k := range eligible {
			i := eligible[(k+off)%len(eligible)]
			oa := ads[i]
			if oa.pacing <= 0 || oa.spent >= oa.budget || tickSpent[s][i] >= oa.cap {
				continue
			}
			if p.cfg.FrequencyCap > 0 && oa.shown[uid] >= p.cfg.FrequencyCap {
				continue
			}
			value := oa.pacing*p.optimizationTerm(oa.ad, u) + p.cfg.Quality
			if p.cfg.ValueNoise > 0 {
				sigma := p.cfg.ValueNoise
				value *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
			}
			if value > best {
				second = best
				best = value
				winner, winnerIdx = oa, i
			} else if value > second {
				second = value
			}
		}
		if winner == nil {
			return
		}
		price := math.Max(second, bg)
		if live {
			if winner.spent+price > winner.budget {
				price = winner.budget - winner.spent
			}
			winner.spent += price
		}
		tickSpent[s][winnerIdx] += price
		winner.impressions++
		winner.hourly[tick]++
		region := u.State()
		if rng.Float64() < u.TravelProb() {
			switch {
			case rng.Float64() >= 0.1:
				region = demo.StateOther
			case u.State() == demo.StateFL:
				region = demo.StateNC
			default:
				region = demo.StateFL
			}
		}
		winner.breakdown[BreakdownKey{Age: u.AgeBucket(), Gender: u.Gender(), Region: region}]++
		winner.race[u.Race()]++
		winner.shown[uid]++
		if rng.Float64() < p.behave.ClickProb(u, winner.ad.Creative.Image) {
			winner.clicks++
		}
	}

	for tick := 0; tick < ticks; tick++ {
		elapsed := float64(tick) / float64(ticks)
		for _, oa := range ads {
			oa.pacing, oa.cap = pacingStep(oa.pacing, oa.spent, oa.budget, elapsed, ticks, p.cfg.GreedyPacing)
			if !live {
				oa.cap = shardCapShare(oa.cap, oa.budget, oa.spent, shards)
			}
		}
		for s, order := range orders {
			rngs[s].Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, uid := range order {
				for n := knuthPoisson(rngs[s], p.pop.View(uid).Activity()/float64(ticks)); n > 0; n-- {
					auction(s, tick, uid)
				}
			}
		}
		for s := range orders {
			for i, oa := range ads {
				if !live {
					oa.spent = commitSpend(oa.spent, tickSpent[s][i], oa.budget)
				}
				tickSpent[s][i] = 0
			}
		}
	}
	return ads
}

// knuthPoisson is the session draw as the oracle day made it: the threshold
// recomputed from the rate at every call.
func knuthPoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
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

// randomDay builds a platform with a randomised delivery configuration and
// one to five ads whose audiences overlap only partially.
func randomDay(t *testing.T, f *fixture, rng *rand.Rand, trial int) (*Platform, []string) {
	t.Helper()
	cfg := testConfig(int64(800 + trial))
	cfg.Ticks = []int{12, 24, 48}[rng.Intn(3)]
	cfg.FrequencyCap = []int{0, 1, 2, 4}[rng.Intn(4)]
	cfg.UseEAR = rng.Intn(4) > 0
	cfg.GreedyPacing = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		cfg.ValueNoise = 0
	}
	p, err := New(cfg, f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := uploadBalancedAudience(t, p, f, 15+rng.Intn(25), int64(900+trial))
	limits := []Targeting{
		{},
		{States: []demo.State{demo.StateFL}},
		{Genders: []demo.Gender{demo.GenderFemale}},
		{AgeMax: 45},
	}
	profiles := demo.AllProfiles()
	specs := make([]diffAdSpec, 1+rng.Intn(5))
	for i := range specs {
		specs[i] = diffAdSpec{
			img:    image.FromProfile(profiles[rng.Intn(len(profiles))]),
			budget: []int{40, 300, 2_000_000}[rng.Intn(3)],
			limit:  limits[rng.Intn(len(limits))],
		}
	}
	objective := []Objective{ObjectiveTraffic, ObjectiveConversions, ObjectiveAwareness}[rng.Intn(3)]
	return p, createAdSet(t, p, objective, caID, specs)
}

func TestDayPlanMatchesMapOracleOnRandomDays(t *testing.T) {
	f := sharedFixture(t)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 12; trial++ {
		p, ids := randomDay(t, f, rng, trial)
		shards := 1 + rng.Intn(3)
		seed := rng.Int63()

		plan, err := p.prepareDay(ids)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewPacingController(p.dayInit("", plan), shards)
		if err != nil {
			t.Fatal(err)
		}
		run := p.newDayRun(plan, seed, 0, shards, shards)
		if err := p.driveTicks(run, ctrl); err != nil {
			t.Fatal(err)
		}
		for _, ad := range plan.active {
			p.stats[ad.ID] = p.newAdStats(ad.ID)
		}
		for _, sh := range run.shards {
			sh.foldInto(p.stats, plan.active)
		}
		want := oracleDay(p, plan.active, seed, shards)

		for i, oa := range want {
			st := p.stats[oa.ad.ID]
			if ctrl.spent[i] != oa.spent {
				t.Errorf("trial %d ad %d: spent %v, oracle %v", trial, i, ctrl.spent[i], oa.spent)
			}
			if st.Impressions != oa.impressions || st.Clicks != oa.clicks {
				t.Errorf("trial %d ad %d: %d impressions %d clicks, oracle %d and %d", trial, i, st.Impressions, st.Clicks, oa.impressions, oa.clicks)
			}
			if st.Reach != len(oa.shown) {
				t.Errorf("trial %d ad %d: reach from counters %d, set-based reach %d", trial, i, st.Reach, len(oa.shown))
			}
			if !reflect.DeepEqual(st.Breakdown, oa.breakdown) {
				t.Errorf("trial %d ad %d: dense cells fold to %v, map tally %v", trial, i, st.Breakdown, oa.breakdown)
			}
			if !reflect.DeepEqual(st.RaceOracle, oa.race) {
				t.Errorf("trial %d ad %d: race counts %v, map tally %v", trial, i, st.RaceOracle, oa.race)
			}
			if !reflect.DeepEqual(st.HourlySeries, oa.hourly) {
				t.Errorf("trial %d ad %d: hourly series %v, oracle %v", trial, i, st.HourlySeries, oa.hourly)
			}
		}
		// The slot counters are the oracle's per-user counts, and every memo
		// entry a shard filled is what a fresh evaluation on a user of its key
		// returns — the oracle above evaluated both models per auction, from
		// the population.
		nAds := len(plan.active)
		keySeen := make([]bool, numKeys)
		for row := 0; row < plan.elig.rows(); row++ {
			uid := int(plan.elig.users[row])
			for slot := plan.elig.offsets[row]; slot < plan.elig.offsets[row+1]; slot++ {
				run := plan.elig.ads[slot]
				if got, shown := int(plan.shown[slot]), want[run].shown[uid]; got != shown {
					t.Fatalf("trial %d user %d ad %d: slot counter %d, oracle showed it %d times", trial, uid, run, got, shown)
				}
			}
			u := p.pop.View(uid)
			key := plan.rows[row].key()
			if at := (u.Age()*cellGenders+int(u.Gender()))*numRaces + int(u.Race()); key != at {
				t.Fatalf("trial %d user %d (%d, %v, %v): row key %d, want %d", trial, uid, u.Age(), u.Gender(), u.Race(), key, at)
			}
			keySeen[key] = true
			for run, ad := range plan.active {
				if bits := plan.terms[key*nAds+run].Load(); bits != 0 && math.Float64frombits(bits) != p.optimizationTerm(ad, u) {
					t.Fatalf("trial %d user %d ad %d: memoised term %v, fresh %v", trial, uid, run, math.Float64frombits(bits), p.optimizationTerm(ad, u))
				}
				if bits := plan.clicks[key*nAds+run].Load(); bits != 0 && math.Float64frombits(bits) != p.behave.ClickProb(u, ad.Creative.Image) {
					t.Fatalf("trial %d user %d ad %d: memoised click probability %v, fresh %v", trial, uid, run, math.Float64frombits(bits), p.behave.ClickProb(u, ad.Creative.Image))
				}
			}
		}
		for name, table := range map[string][]atomic.Uint64{"term": plan.terms, "click": plan.clicks} {
			filled := 0
			for at := range table {
				if table[at].Load() == 0 {
					continue
				}
				filled++
				if !keySeen[at/nAds] {
					t.Errorf("trial %d: %s entry %d is filled for a key no user of the day has", trial, name, at)
				}
			}
			if filled == 0 {
				t.Errorf("trial %d: no %s entry was ever filled", trial, name)
			}
		}
	}
}

// TestCellKeyCoversTheBreakdownSpace: every (age bucket, gender, region) has
// exactly one dense cell, the one gatherRows and the kernel address it by.
func TestCellKeyCoversTheBreakdownSpace(t *testing.T) {
	seen := map[BreakdownKey]bool{}
	for c := 0; c < numCells; c++ {
		k := cellKey(c)
		if seen[k] {
			t.Fatalf("cell %d repeats key %+v", c, k)
		}
		seen[k] = true
		if at := (int(k.Age)*cellGenders+int(k.Gender))*cellRegions + int(k.Region); at != c {
			t.Fatalf("key %+v of cell %d is addressed as cell %d", k, c, at)
		}
	}
	for _, age := range demo.AllAgeBuckets() {
		for _, g := range []demo.Gender{demo.GenderUnknown, demo.GenderMale, demo.GenderFemale} {
			for _, r := range []demo.State{demo.StateOther, demo.StateFL, demo.StateNC} {
				if !seen[BreakdownKey{Age: age, Gender: g, Region: r}] {
					t.Errorf("no cell for %v/%v/%v", age, g, r)
				}
			}
		}
	}
}

// TestDayTickDoesNotAllocate: once the memo tables and the served buffer are
// warm, a tick — the barrier's directives, the shard step (shuffle, sessions,
// auctions, report), the barrier's commit — makes no heap allocation, live or
// frozen. The frozen day is a 2-shard day of which this process owns shard 0,
// as a fleet backend does: the goroutines of a run that owns several shards
// are not part of the claim.
func TestDayTickDoesNotAllocate(t *testing.T) {
	p, ids := benchDay(t)
	for _, shards := range []int{1, 2} {
		st := newTickStepper(t, p, ids, 77, shards)
		tick := 0
		oneTick := func() { st.step(tick % p.cfg.Ticks); tick++ }
		for tick < 8 {
			oneTick()
		}
		if allocs := testing.AllocsPerRun(10, oneTick); allocs != 0 {
			t.Errorf("shard of %d: %v allocations per warmed tick, want 0", shards, allocs)
		}
	}
}

// TestShuffleRowsIsRandShuffle pins shuffleRows draw for draw against
// rand.Shuffle: from equal seeds, three consecutive shuffles on one stream
// leave the same permutation and the same next draw. The exported Int31n maps
// a draw to an index differently (mask or modulo, not multiply-shift), so a
// shuffle written with it fails here.
func TestShuffleRowsIsRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 1000, 40000} {
		visits := make([]visit, n)
		want := make([]int32, n)
		for seed := int64(1); seed <= 50; seed++ {
			for i := range visits {
				visits[i] = visit{quiet: float64(i), pos: int32(i)}
				want[i] = int32(i)
			}
			got, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for round := 0; round < 3; round++ {
				shuffleRows(got, visits)
				ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				for i, v := range visits {
					if v.pos != want[i] || v.quiet != float64(want[i]) {
						t.Fatalf("n=%d seed=%d round %d: entry %d is %+v, rand.Shuffle put %d there", n, seed, round, i, v, want[i])
					}
				}
			}
			if a, b := got.Int63(), ref.Int63(); a != b {
				t.Fatalf("n=%d seed=%d: next draw %d, after rand.Shuffle %d", n, seed, a, b)
			}
		}
	}
}

// TestMemoKeyIsAllTheModelsRead is the property the day plan's memo tables
// rest on: optimizationTerm and Behavior.ClickProb return the same bits for
// any two users who share (age, gender, race), whatever the creative and the
// objective. Teach either model about anything else in a user — ZIP, state,
// activity — and this fails; the tables' key (planRow.key, numKeys) has to
// grow with the model before any golden is regenerated.
func TestMemoKeyIsAllTheModelsRead(t *testing.T) {
	p, f := newTestPlatform(t, 917)
	images := []image.Features{{}, {Job: "lumber"}} // no person, with and without a job
	for i, prof := range demo.AllProfiles() {       // every implied age, children included
		img := image.FromProfile(prof)
		images = append(images, img)
		img.Job = image.JobTypes()[i%len(image.JobTypes())]
		images = append(images, img)
	}
	var ads []*Ad
	for _, img := range images {
		pc := p.perceive(img)
		for _, obj := range []Objective{ObjectiveTraffic, ObjectiveConversions, ObjectiveAwareness} {
			ads = append(ads, &Ad{Objective: obj, Creative: Creative{Image: img}, perceived: pc, folded: p.ear.fold(&pc)})
		}
	}
	type key struct {
		age    int
		gender demo.Gender
		race   demo.Race
	}
	byKey := map[key][]int{}
	for i := 0; i < f.pop.Len(); i++ {
		u := f.pop.View(i)
		k := key{u.Age(), u.Gender(), u.Race()}
		byKey[k] = append(byKey[k], i)
	}
	rng := rand.New(rand.NewSource(5))
	pairs := 0
	for pairs < 300 {
		a := f.pop.View(rng.Intn(f.pop.Len()))
		peers := byKey[key{a.Age(), a.Gender(), a.Race()}]
		b := f.pop.View(peers[rng.Intn(len(peers))])
		if a.ID() == b.ID() {
			continue
		}
		pairs++
		for _, ad := range ads {
			if x, y := p.optimizationTerm(ad, a), p.optimizationTerm(ad, b); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("users %d and %d share (%d, %v, %v) but %v terms are %v and %v", a.ID(), b.ID(), a.Age(), a.Gender(), a.Race(), ad.Objective, x, y)
			}
			img := ad.Creative.Image
			if x, y := p.behave.ClickProb(a, img), p.behave.ClickProb(b, img); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("users %d and %d share (%d, %v, %v) but click probabilities on %+v are %v and %v", a.ID(), b.ID(), a.Age(), a.Gender(), a.Race(), img, x, y)
			}
		}
	}
}

// TestFourShardDayRepeats runs the same 4-shard day twice in one process: the
// shards are gathered side by side and fill one pair of memo tables between
// them. It is the day to put under the race detector
// (go test -race -count=10 -run TestFourShardDayRepeats ./internal/platform).
func TestFourShardDayRepeats(t *testing.T) {
	p, f := newTestPlatform(t, 919)
	caID := uploadBalancedAudience(t, p, f, 40, 3)
	var digests [2]string
	for rep := range digests {
		var specs []diffAdSpec
		for _, prof := range demo.AllProfiles()[:4] {
			specs = append(specs, diffAdSpec{img: image.FromProfile(prof), budget: 300})
		}
		ids := createAdSet(t, p, ObjectiveTraffic, caID, specs)
		if err := p.RunDayWorkers(ids, 11, 4); err != nil {
			t.Fatal(err)
		}
		digests[rep] = deliveryDigest(t, p, ids)
	}
	if digests[0] != digests[1] {
		t.Errorf("the same 4-shard day gave %s, then %s", digests[0], digests[1])
	}
}
