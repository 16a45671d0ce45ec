package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// arenaDay is one step of arenaSequence: a delivery day, or a request that
// fails, run to its end on the platform.
type arenaDay struct {
	name string
	// replaces is set on the step whose day is taken over by a second
	// BeginDaySession: it ends on the replacing session's arena.
	replaces bool
	run      func(t *testing.T, p *Platform)
}

// arenaSequence builds one platform and runs the same days on it every time:
// in-process days at 3, 1 and 2 workers over an audience that shrinks and
// then grows, a session day on shard 0 of 2, an aborted session, a session
// replaced by a second BeginDaySession, a request refused for an unknown ad,
// and a last in-process day. before is called ahead of each step and after
// behind it. It returns the platform's State, every ad's insights and the
// retraining buffer, printed.
func arenaSequence(t *testing.T, before, after func(t *testing.T, p *Platform, day arenaDay)) []byte {
	t.Helper()
	p, f := newTestPlatform(t, 4343)
	mid := uploadBalancedAudience(t, p, f, 60, 51)
	small := uploadBalancedAudience(t, p, f, 15, 52)
	large := uploadBalancedAudience(t, p, f, 150, 53)
	profiles := demo.AllProfiles()
	ads := func(caID string, n int) []string {
		specs := make([]diffAdSpec, n)
		for i := range specs {
			specs[i] = diffAdSpec{img: image.FromProfile(profiles[(3*i+n)%len(profiles)]), budget: 400 + 150*i}
		}
		return createAdSet(t, p, ObjectiveTraffic, caID, specs)
	}
	inProcess := func(ids []string, seed int64, workers int) func(*testing.T, *Platform) {
		return func(t *testing.T, p *Platform) {
			if err := p.RunDayWorkers(ids, seed, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	// session runs ticks of shard 0 of a `shards`-wide session day; the other
	// shards report no spend.
	session := func(p *Platform, name string, ids []string, seed int64, shards, ticks int) *PacingController {
		init, err := p.BeginDaySession(name, ids, seed, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewPacingController(init, shards)
		if err != nil {
			t.Fatal(err)
		}
		spent := make([][]float64, shards)
		for s := range spent {
			spent[s] = make([]float64, len(ids))
		}
		for tick := 0; tick < ticks; tick++ {
			rep, err := p.DaySessionTick(name, tick, ctrl.TickDirectives(tick))
			if err != nil {
				t.Fatal(err)
			}
			spent[0] = rep.Spent
			if err := ctrl.CommitTick(spent); err != nil {
				t.Fatal(err)
			}
		}
		return ctrl
	}
	replaced := ads(mid, 2)
	days := []arenaDay{
		{name: "workers 3", run: inProcess(ads(mid, 3), 11, 3)},
		{name: "workers 1, smaller audience", run: inProcess(ads(small, 2), 12, 1)},
		{name: "workers 2, larger audience", run: inProcess(ads(large, 4), 13, 2)},
		{name: "session, shard 0 of 2", run: func(t *testing.T, p *Platform) {
			ids := ads(mid, 2)
			ctrl := session(p, "whole", ids, 14, 2, p.cfg.Ticks)
			if err := p.FinishDaySession("whole", ctrl.SpendCents()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "aborted session", run: func(t *testing.T, p *Platform) {
			session(p, "aborted", ads(large, 3), 15, 1, 5)
			if err := p.AbortDaySession("aborted"); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "replaced session", replaces: true, run: func(t *testing.T, p *Platform) {
			session(p, "replaced", replaced, 16, 1, 7)
			ids := ads(small, 3)
			ctrl := session(p, "replacing", ids, 17, 1, p.cfg.Ticks)
			if err := p.FinishDaySession("replacing", ctrl.SpendCents()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "unknown ad", run: func(t *testing.T, p *Platform) {
			if err := p.RunDayWorkers(append(ads(mid, 1), "ad-unknown"), 18, 2); err == nil {
				t.Fatal("a day with an unknown ad ran")
			}
		}},
		{name: "workers 2, the replaced session's ads", run: inProcess(replaced, 19, 2)},
	}
	for _, day := range days {
		before(t, p, day)
		day.run(t, p)
		after(t, p, day)
	}

	var out bytes.Buffer
	state := p.State()
	b, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(b)
	for _, ad := range state.Ads {
		if st, err := p.Insights(ad.ID); err == nil {
			fmt.Fprintf(&out, "\n%+v", *st)
		}
	}
	for _, row := range p.served {
		fmt.Fprintf(&out, "\n%s %d %t", row.ad.ID, row.user, row.clicked)
	}
	return out.Bytes()
}

// TestArenaIsInvisible runs arenaSequence twice: once back to back, where
// every day but the first and the one a session is replaced in takes back
// the arena the day before it parked, and parks it holding no ad, and once
// with a collection ahead of every day, which takes the parked arena away,
// so every day builds a new one. The two platforms must end byte-equal.
func TestArenaIsInvisible(t *testing.T) {
	var parked *dayArena
	reused := arenaSequence(t,
		func(t *testing.T, p *Platform, day arenaDay) { parked = p.spareArena.Value() },
		func(t *testing.T, p *Platform, day arenaDay) {
			now := p.spareArena.Value()
			if now == nil {
				t.Fatalf("%s: no arena parked", day.name)
			}
			if parked != nil && !day.replaces && now != parked {
				t.Fatalf("%s: parked a new arena, not the one it took", day.name)
			}
			for _, sh := range now.shards {
				for _, row := range sh.served[:cap(sh.served)] {
					if row.ad != nil {
						t.Fatalf("%s: the parked arena still holds ad %s", day.name, row.ad.ID)
					}
				}
			}
		})
	collected := arenaSequence(t,
		func(t *testing.T, p *Platform, day arenaDay) {
			runtime.GC()
			if p.spareArena.Value() != nil {
				t.Fatalf("%s: the parked arena survived a collection", day.name)
			}
		},
		func(*testing.T, *Platform, arenaDay) {})
	if !bytes.Equal(reused, collected) {
		t.Fatalf("reusing the arena changed the days: %d bytes of output, %d with a new arena every day", len(reused), len(collected))
	}
}

// TestDayAllocationBudget: once the retraining log is full, a day on the
// world day_40k delivers (40k targeted users, four ads) allocates almost
// nothing beyond the arena the day before it parked — the ads' reports, the
// plan's and controller's headers and the generator's seeding. The collector
// is off, so the parked arena stays.
func TestDayAllocationBudget(t *testing.T) {
	p, ids := sparseDay(t)
	first, err := p.Ad(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var days [2][]string
	for d := range days {
		for range ids {
			ad, err := p.CreateAd(first.CampaignID, first.Creative, first.Targeting, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			days[d] = append(days[d], ad.ID)
		}
	}
	p.served = make([]servedRow, maxServedLog)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := p.RunDayWorkers(days[0], 1, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.RunDayWorkers(days[1], 2, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a day allocated %d B, budget %d B", got, budget)
	} else {
		t.Logf("a day allocated %d B in %d allocations", got, after.Mallocs-before.Mallocs)
	}
}

// TestServedLogGrowthBudget fills an empty retraining log the way the ticks
// of a day do, one shard's rows at a time: what the growing log allocates in
// all stays under twice its final size, and its capacity never passes
// maxServedLog.
func TestServedLogGrowthBudget(t *testing.T) {
	const chunk = 4000
	p := &Platform{}
	ad := &Ad{ID: "ad"}
	rows := make([]servedRow, chunk)
	sh := &dayShard{}
	run := &dayRun{shards: []*dayShard{sh}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	largest := 0
	for len(p.served) < maxServedLog {
		for i := range rows {
			rows[i] = servedRow{ad: ad, user: int32(i)}
		}
		sh.served = rows
		p.flushServed(run)
		largest = max(largest, cap(p.served))
	}
	runtime.ReadMemStats(&after)
	if largest > maxServedLog {
		t.Errorf("the log grew to an array of %d rows, more than maxServedLog", largest)
	}
	final := uint64(maxServedLog) * uint64(unsafe.Sizeof(servedRow{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*final {
		t.Errorf("filling the log allocated %d B, %.1f× its final %d B", got, float64(got)/float64(final), final)
	} else {
		t.Logf("filling the log allocated %d B, %.2f× its final %d B", got, float64(got)/float64(final), final)
	}
}
