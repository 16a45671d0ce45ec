package platform

// Differential tests for the coordinated day session (delivery_session.go)
// and the coordinator-side PacingController: driving N independent platform
// instances — each holding the full world and identical CRUD state, exactly
// like N shard backend processes — through the session protocol must
// reproduce the in-process engines bit for bit. This is the in-process half
// of the cross-process determinism proof; internal/coordinator's e2e test
// carries the same assertion over real HTTP.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// coordObjects is one backend's copy of the coordinated account state.
type coordObjects struct {
	p   *Platform
	ca  string
	ids []string
}

// runCoordinatedDay drives one delivery day across the given backends the
// way the coordinator does: Begin on every backend (asserting the day plans
// agree), per tick scatter the controller's directives and commit the
// reported spend, then Finish everywhere with the controller's authoritative
// SpendCents.
func runCoordinatedDay(t *testing.T, backends []coordObjects, seed int64) {
	t.Helper()
	shards := len(backends)
	session := fmt.Sprintf("day-%d-%d", seed, shards)
	var init *DayInit
	for shard, b := range backends {
		in, err := b.p.BeginDaySession(session, b.ids, seed, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		// IDs differ across backends only if CRUD histories diverged; the
		// plan's budgets and starting bids must agree exactly.
		if init == nil {
			init = in
			continue
		}
		if len(in.Ads) != len(init.Ads) || in.Ticks != init.Ticks || in.Greedy != init.Greedy {
			t.Fatalf("shard %d day plan shape diverged: %+v vs %+v", shard, in, init)
		}
		for i := range in.Ads {
			if in.Ads[i].Pacing != init.Ads[i].Pacing || in.Ads[i].DailyBudgetCents != init.Ads[i].DailyBudgetCents {
				t.Fatalf("shard %d ad %d plan diverged: %+v vs %+v", shard, i, in.Ads[i], init.Ads[i])
			}
		}
	}
	ctrl, err := NewPacingController(init, shards)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		dirs := ctrl.TickDirectives(tick)
		perShard := make([][]float64, shards)
		for shard, b := range backends {
			rep, err := b.p.DaySessionTick(session, tick, dirs)
			if err != nil {
				t.Fatal(err)
			}
			perShard[shard] = rep.Spent
		}
		if err := ctrl.CommitTick(perShard); err != nil {
			t.Fatal(err)
		}
	}
	cents := ctrl.SpendCents()
	for _, b := range backends {
		if err := b.p.FinishDaySession(session, cents); err != nil {
			t.Fatal(err)
		}
	}
}

// mergedSessionDigest merges per-backend insights the way the router does —
// counts sum (shards own disjoint users), SpendCents must agree to the bit —
// and hashes the result in deliveryDigest's canonical form.
func mergedSessionDigest(t *testing.T, backends []coordObjects) string {
	t.Helper()
	states := make([]AdStatsState, 0, len(backends[0].ids))
	for i := range backends[0].ids {
		var m *AdStats
		for _, b := range backends {
			st, err := b.p.Insights(b.ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if m == nil {
				m = st
				continue
			}
			if st.SpendCents != m.SpendCents {
				t.Fatalf("ad %d spend diverged across shards: %v vs %v", i, st.SpendCents, m.SpendCents)
			}
			m.Impressions += st.Impressions
			m.Reach += st.Reach
			m.Clicks += st.Clicks
			for k, v := range st.Breakdown {
				m.Breakdown[k] += v
			}
			for r, v := range st.RaceOracle {
				m.RaceOracle[r] += v
			}
			for ti, v := range st.HourlySeries {
				m.HourlySeries[ti] += v
			}
		}
		ss := adStatsState(m)
		ss.AdID = fmt.Sprintf("ad#%d", i)
		states = append(states, *ss)
	}
	b, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDaySessionMatchesInProcessEngines is the central equivalence claim of
// the multi-process design: a coordinated day over N backend platforms is
// byte-identical to RunDayWorkers(workers=N) on a single platform — the
// 1-shard configuration therefore also matches the historical sequential
// goldens.
func TestDaySessionMatchesInProcessEngines(t *testing.T) {
	f := sharedFixture(t)
	const maxShards = 4
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			refCA := tc.setup(t, ref, f)
			backends := make([]coordObjects, maxShards)
			for i := range backends {
				p, err := New(tc.cfg(), f.pop, f.behave)
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = coordObjects{p: p, ca: tc.setup(t, p, f)}
			}
			for _, shards := range []int{1, 2, 4} {
				// Fresh identically-specced ad sets per run, on the reference
				// and on every backend, so ID sequences stay aligned and the
				// comparison is independent of allocation history.
				refIDs := createAdSet(t, ref, tc.obj, refCA, tc.specs)
				if err := ref.RunDayWorkers(refIDs, tc.runSeed, shards); err != nil {
					t.Fatal(err)
				}
				want := deliveryDigest(t, ref, refIDs)
				if shards == 1 && want != tc.golden {
					t.Fatalf("reference workers=1 digest %s does not match golden %s", want, tc.golden)
				}
				for i := range backends {
					backends[i].ids = createAdSet(t, backends[i].p, tc.obj, backends[i].ca, tc.specs)
				}
				runCoordinatedDay(t, backends[:shards], tc.runSeed)
				if got := mergedSessionDigest(t, backends[:shards]); got != want {
					t.Errorf("coordinated %d-shard day diverged from RunDayWorkers(workers=%d):\n got %s\nwant %s", shards, shards, got, want)
				}
			}
		})
	}
}

// TestDaySessionProtocol covers the session lifecycle rules: tick replay,
// ordering, engine and retraining exclusion, abort, and replacement.
func TestDaySessionProtocol(t *testing.T) {
	f := sharedFixture(t)
	tc := diffCases()[0]
	p, err := New(tc.cfg(), f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := tc.setup(t, p, f)
	ids := createAdSet(t, p, tc.obj, caID, tc.specs)

	init, err := p.BeginDaySession("s1", ids, tc.runSeed, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewPacingController(init, 2)
	if err != nil {
		t.Fatal(err)
	}
	dirs := ctrl.TickDirectives(0)

	if err := p.RunDayWorkers(ids, tc.runSeed, 1); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("in-process day during an active session: got %v, want ErrSessionActive", err)
	}
	if err := p.Retrain(TrainingConfig{}); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("retraining during an active session: got %v, want ErrSessionActive", err)
	}
	if _, err := p.DaySessionTick("other", 0, dirs); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("foreign session tick: got %v, want ErrSessionConflict", err)
	}
	if _, err := p.DaySessionTick("s1", 3, dirs); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("out-of-order tick: got %v, want ErrSessionConflict", err)
	}
	rep, err := p.DaySessionTick("s1", 0, dirs)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := p.DaySessionTick("s1", 0, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, replay) {
		t.Fatalf("tick replay diverged: %+v vs %+v", replay, rep)
	}
	if err := p.FinishDaySession("s1", ctrl.SpendCents()); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("early finish: got %v, want ErrSessionConflict", err)
	}
	if err := p.AbortDaySession("other"); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("foreign abort: got %v, want ErrSessionConflict", err)
	}
	if err := p.AbortDaySession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortDaySession("s1"); err != nil {
		t.Fatalf("abort is not idempotent: %v", err)
	}

	// Begin replaces a stale session, and the abandoned day leaves no trace:
	// the replacement run still matches the engine.
	if _, err := p.BeginDaySession("stale", ids, tc.runSeed, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginDaySession("s2", ids, tc.runSeed, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortDaySession("s2"); err != nil {
		t.Fatal(err)
	}
	if err := p.RunDayWorkers(ids, tc.runSeed, 1); err != nil {
		t.Fatal(err)
	}
	if got := deliveryDigest(t, p, ids); got != tc.golden {
		t.Errorf("post-abort engine run diverged from golden:\n got %s\nwant %s", got, tc.golden)
	}
}

// TestSessionBuffersOnlyWhatFinishFlushes: a session shard buffers served rows
// only up to the room the retraining buffer has at Begin, which nothing can
// change before Finish. The same one-shard session day runs on an empty
// buffer, on one with room for 200 rows and on a full one: it buffers every
// impression, then exactly min(impressions, 200) rows — the first 200 the
// unbounded day logs — then none.
func TestSessionBuffersOnlyWhatFinishFlushes(t *testing.T) {
	const room = 200
	var all []servedRow
	for _, used := range []int{0, maxServedLog - room, maxServedLog} {
		p, f := newTestPlatform(t, 314)
		caID := uploadBalancedAudience(t, p, f, 50, 35)
		img := image.FromProfile(demo.AllProfiles()[0])
		ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: img, budget: 300}, {img: img, budget: 300}})
		p.served = make([]servedRow, used)
		init, err := p.BeginDaySession("s", ids, 5, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewPacingController(init, 1)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < ctrl.Ticks(); tick++ {
			rep, err := p.DaySessionTick("s", tick, ctrl.TickDirectives(tick))
			if err != nil {
				t.Fatal(err)
			}
			if err := ctrl.CommitTick([][]float64{rep.Spent}); err != nil {
				t.Fatal(err)
			}
		}
		buffered := len(p.session.run.shards[0].served)
		if err := p.FinishDaySession("s", ctrl.SpendCents()); err != nil {
			t.Fatal(err)
		}
		impressions := 0
		for _, id := range ids {
			st, err := p.Insights(id)
			if err != nil {
				t.Fatal(err)
			}
			impressions += st.Impressions
		}
		logged := p.served[used:]
		want := min(impressions, maxServedLog-used)
		if buffered != want || len(logged) != want {
			t.Fatalf("%d rows in use: the session buffered %d rows and flushed %d of %d impressions, want %d", used, buffered, len(logged), impressions, want)
		}
		if used == 0 {
			if impressions <= room {
				t.Fatalf("the day served %d impressions, want more than %d", impressions, room)
			}
			all = logged
			continue
		}
		for i, row := range logged {
			if w := all[i]; row.user != w.user || row.clicked != w.clicked || row.ad.ID != w.ad.ID {
				t.Fatalf("%d rows in use, row %d: logged %+v, the unbounded day logs %+v", used, i, row, w)
			}
		}
	}
}
