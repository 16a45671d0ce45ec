package platform

// Benchmarks of the delivery day's layers, beside the code: audience
// resolution at ad creation, the CSR eligibility build, the whole day
// preparation, and one tick of the auction kernel. All run on the shared
// fixture world with every user in one audience (~30k rows, 4 ads, so ~120k
// slots), large enough that a tick is auctions rather than loop set-up; the
// tick also runs on a sparse audience over a 1M-user world (sparseDay) and on
// 24 ads over one audience (crowdedDay).
// BenchmarkInsights reads back an ad the fixture delivered.
//
//	go test -run '^$' -bench 'ResolveAudience|BuildEligIndex|PrepareDay|DayTick' -benchtime 200x ./internal/platform

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"weak"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// dayFixture is a platform with active ads over one audience, built once per
// process. The ads are never delivered through RunDay, so they stay
// active and every benchmark prepares the same day.
type dayFixture struct {
	once sync.Once
	p    *Platform
	ids  []string
}

var benchDayFx, sparseDayFx, crowdedDayFx, insightsFx dayFixture

// build trains a platform over the population and creates `copies` of each of
// the four paired ads on an audience of every stride-th user.
func (fx *dayFixture) build(seed int64, pop *population.Population, behave *population.Behavior, stride, copies int) {
	p, err := New(testConfig(seed), pop, behave)
	if err != nil {
		panic(err)
	}
	hashes := make([]string, 0, pop.Len()/stride+1)
	for i := 0; i < pop.Len(); i += stride {
		hashes = append(hashes, pop.View(i).PIIKey())
	}
	ca, err := p.CreateCustomAudience("bench", hashes)
	if err != nil {
		panic(err)
	}
	cmp, err := p.CreateCampaign("bench", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		panic(err)
	}
	for range copies {
		for _, prof := range []demo.Profile{
			{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
			{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
			{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
			{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
		} {
			ad, err := p.CreateAd(cmp.ID, Creative{Image: image.FromProfile(prof), Headline: "h", LinkURL: "https://example.com"}, Targeting{CustomAudienceIDs: []string{ca.ID}}, 2_000_000)
			if err != nil {
				panic(err)
			}
			fx.ids = append(fx.ids, ad.ID)
		}
	}
	fx.p = p
}

// benchDay returns a platform over the shared fixture whose four ads all
// target the whole population.
func benchDay(tb testing.TB) (*Platform, []string) {
	tb.Helper()
	f := sharedFixture(tb)
	benchDayFx.once.Do(func() { benchDayFx.build(701, f.pop, f.behave, 1, 1) })
	return benchDayFx.p, benchDayFx.ids
}

// sparseDay is the day the repo's day_40k workload delivers: a 1-in-25 stride
// audience (~40k users) over a streamed 1M-user world, so the day's users are
// scattered across population columns far larger than any cache. On the
// shared fixture the columns sit in cache and whatever a tick reads from
// them looks free.
func sparseDay(tb testing.TB) (*Platform, []string) {
	tb.Helper()
	f := sharedFixture(tb)
	sparseDayFx.once.Do(func() {
		fl := voter.DefaultGeneratorConfig(demo.StateFL, 111)
		fl.NumVoters = 785_000
		nc := voter.DefaultGeneratorConfig(demo.StateNC, 112)
		nc.NumVoters = 785_000
		pop, err := population.Stream(population.Config{Seed: 113}, 65536, fl, nc)
		if err != nil {
			panic(err)
		}
		sparseDayFx.build(702, pop, f.behave, 25, 1)
	})
	return sparseDayFx.p, sparseDayFx.ids
}

// crowdedDay is the shape of the audit's paired-campaign days: many ads (six
// of each of the four paired creatives) competing for every user of one
// audience, so an auction ranks 24 bids where the other days rank 4 — the
// case in which most bids cannot place and skip their noise's Exp.
func crowdedDay(tb testing.TB) (*Platform, []string) {
	tb.Helper()
	f := sharedFixture(tb)
	crowdedDayFx.once.Do(func() { crowdedDayFx.build(704, f.pop, f.behave, 1, 6) })
	return crowdedDayFx.p, crowdedDayFx.ids
}

// perUnit reports the benchmark's elapsed time per `units` as a custom
// metric.
func perUnit(b *testing.B, units int64, name string) {
	if units > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(units), name)
	}
}

// BenchmarkBuildEligIndex builds the day's CSR eligibility index.
func BenchmarkBuildEligIndex(b *testing.B) {
	p, ids := benchDay(b)
	plan, err := p.prepareDay(ids)
	if err != nil {
		b.Fatal(err)
	}
	var slots int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots += int64(len(plan.arena.buildEligIndex(plan.active).ads))
	}
	perUnit(b, slots, "ns/slot")
}

// BenchmarkResolveAudience resolves a targeting to its user list, as the
// first CreateAd with that targeting does (the table is emptied before every
// resolution): against the whole-population audience alone (~30k members, the
// audit's one-audience case: a filtered pass over the cached ascending list)
// and against it plus an overlapping half-size audience in shuffled order (a
// merge first).
func BenchmarkResolveAudience(b *testing.B) {
	p, _ := benchDay(b)
	everyone := p.audiences["ca-1"]
	half := make([]int32, 0, len(everyone.members)/2)
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(everyone.members)) {
		if k%2 == 0 {
			half = append(half, everyone.members[k])
		}
	}
	halfID := installAudience(p, half)
	defer delete(p.audiences, halfID)
	for _, ids := range [][]string{{"ca-1"}, {"ca-1", halfID}} {
		b.Run(fmt.Sprintf("ids=%d", len(ids)), func(b *testing.B) {
			t := Targeting{CustomAudienceIDs: ids}
			if _, err := p.resolveAudience(&t); err != nil { // sorts each audience once, outside the timer
				b.Fatal(err)
			}
			var users int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(p.resolved)
				out, err := p.resolveAudience(&t)
				if err != nil {
					b.Fatal(err)
				}
				users += int64(len(out))
			}
			perUnit(b, users, "ns/user")
		})
	}
}

// BenchmarkCreateAd creates an ad on the whole-population audience: the first
// ad on a targeting, which resolves it, and every later one, which shares the
// resolved list.
func BenchmarkCreateAd(b *testing.B) {
	p, ids := benchDay(b)
	first, err := p.Ad(ids[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"first", "repeat"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if name == "first" {
					clear(p.resolved)
				}
				if _, err := p.CreateAd(first.CampaignID, first.Creative, first.Targeting, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareDay is what a day costs before its first tick: resolve the
// ads, estimate their starting bids, build the index and the slot arrays,
// and gather the rows of the day's only shard. steady parks each day's arena
// as a day that ends does, so the next day takes it back; cold drops it, so
// every day allocates its buffers, as the first day of a platform does.
func BenchmarkPrepareDay(b *testing.B) {
	p, ids := benchDay(b)
	day := func(b *testing.B) int {
		plan, err := p.prepareDay(ids)
		if err != nil {
			b.Fatal(err)
		}
		users := len(p.newDayRun(plan, 1, 0, 1, 1).shards[0].visits)
		p.parkArena(plan.arena)
		return users
	}
	for _, name := range []string{"steady", "cold"} {
		b.Run(name, func(b *testing.B) {
			day(b)
			var users int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if name == "cold" {
					p.spareArena = weak.Pointer[dayArena]{}
				}
				users += int64(day(b))
			}
			perUnit(b, users, "ns/user")
		})
	}
}

// tickStepper drives shard 0 of a `shards`-wide day one tick at a time the
// way RunDayWorkers' loop drives the shards it owns: the barrier's
// directives, the shard step, the barrier's commit. The shards this process
// does not own report no spend, and served rows go nowhere.
type tickStepper struct {
	p       *Platform
	ctrl    *PacingController
	run     *dayRun
	reports [][]float64
}

func newTickStepper(tb testing.TB, p *Platform, ids []string, seed int64, shards int) *tickStepper {
	tb.Helper()
	plan, err := p.prepareDay(ids)
	if err != nil {
		tb.Fatal(err)
	}
	ctrl, err := NewPacingController(p.dayInit("", plan), shards)
	if err != nil {
		tb.Fatal(err)
	}
	st := &tickStepper{p: p, ctrl: ctrl, run: p.newDayRun(plan, seed, 0, 1, shards), reports: make([][]float64, shards)}
	st.reports[0] = st.run.reports[0]
	for s := 1; s < shards; s++ {
		st.reports[s] = make([]float64, len(ids))
	}
	return st
}

func (st *tickStepper) step(tick int) {
	st.p.stepShards(st.run, tick, st.ctrl.TickDirectives(tick))
	if err := st.ctrl.CommitTick(st.reports); err != nil {
		panic(err)
	}
	st.shard().served = st.shard().served[:0]
}

func (st *tickStepper) shard() *dayShard { return st.run.shards[0] }

// BenchmarkDayTick times one tick of one shard — the barrier, the shuffled
// walk, the auctions — cycling through whole days so that every tick of the
// day (cold memo tables, warm tables, users at their frequency cap) weighs in
// as it does in a real day. Building each new day sits outside the timer, and
// so does the sparse cases' world (a few seconds, once). sparse_shard_of_2 is
// the frozen shard a backend of a 2-shard fleet ticks on that world; crowded
// is the audit's shape, 24 ads on one audience.
func BenchmarkDayTick(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
		day    func(testing.TB) (*Platform, []string)
	}{{"sequential", 1, benchDay}, {"shard_of_2", 2, benchDay}, {"sparse", 1, sparseDay}, {"sparse_shard_of_2", 2, sparseDay}, {"crowded", 1, crowdedDay}} {
		b.Run(bc.name, func(b *testing.B) {
			p, ids := bc.day(b)
			ticks := p.cfg.Ticks
			var st *tickStepper
			var userTicks, auctions int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick := i % ticks
				if tick == 0 {
					b.StopTimer()
					if st != nil {
						auctions += st.shard().auctions
					}
					st = newTickStepper(b, p, ids, int64(i), bc.shards)
					b.StartTimer()
				}
				st.step(tick)
				userTicks += int64(len(st.shard().visits))
			}
			auctions += st.shard().auctions
			perUnit(b, userTicks, "ns/user-tick")
			perUnit(b, auctions, "ns/auction")
		})
	}
}

// BenchmarkInsights times one insights read of a delivered ad: the deep
// copy Platform.Insights hands out, breakdown and race maps and the hourly
// series included. The four ads target a 1-in-10 stride audience of the
// shared fixture and deliver one day first.
func BenchmarkInsights(b *testing.B) {
	f := sharedFixture(b)
	insightsFx.once.Do(func() {
		insightsFx.build(703, f.pop, f.behave, 10, 1)
		if err := insightsFx.p.RunDayWorkers(insightsFx.ids, 7031, 1); err != nil {
			panic(err)
		}
	})
	p, id := insightsFx.p, insightsFx.ids[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insights(id); err != nil {
			b.Fatal(err)
		}
	}
}
