package platform

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
)

// oracleResolvePerAd is resolveAudience as it stood while every ad owned its
// list: no table, a fresh slice per call. It is this round's oracle for the
// shared lists (ROADMAP item 6: an oracle earns one round).
func oracleResolvePerAd(p *Platform, t *Targeting) ([]int32, error) {
	var union []int32
	for k, id := range t.CustomAudienceIDs {
		ca, err := p.audienceLocked(id)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			union = ca.ascending()
		} else {
			union = mergeAscending(union, ca.ascending())
		}
	}
	out := make([]int32, 0, len(union))
	for _, idx := range union {
		if t.matchesUser(p.pop.View(int(idx))) {
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("platform: targeting matches no users")
	}
	return out, nil
}

// userRange is an audience of the n accounts from population index lo up.
func userRange(lo, n int) []int32 {
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(lo + i)
	}
	return members
}

// TestAdsShareOneResolvedList: ads with one targeting hold the identical
// backing array — the audience's own ascending list where the limits remove
// nobody; a different age cap resolves its own. Sharing is sound only while
// nothing writes through Ad.audience, so the package's non-test source is
// searched for a statement that would.
func TestAdsShareOneResolvedList(t *testing.T) {
	p, f := newTestPlatform(t, 921)
	caID := uploadBalancedAudience(t, p, f, 20, 41)
	cmp, err := p.CreateCampaign("share", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	create := func(tg Targeting) []int32 {
		t.Helper()
		ad, err := p.CreateAd(cmp.ID, Creative{Headline: "h"}, tg, 100)
		if err != nil {
			t.Fatal(err)
		}
		return p.ads[ad.ID].audience
	}
	first := create(Targeting{CustomAudienceIDs: []string{caID}})
	if sorted := p.audiences[caID].sorted; &first[0] != &sorted[0] || len(first) != len(sorted) {
		t.Fatal("an ad on one unfiltered audience holds a copy of the audience's ascending list")
	}
	for n := 0; n < 5; n++ {
		// A fresh Targeting value each time: the table is keyed by content.
		if next := create(Targeting{CustomAudienceIDs: []string{caID}}); &next[0] != &first[0] || len(next) != len(first) {
			t.Fatalf("ad %d on the same targeting holds its own list", n+2)
		}
	}
	capped := create(Targeting{CustomAudienceIDs: []string{caID}, AgeMax: 45})
	if &capped[0] == &first[0] || len(capped) >= len(first) {
		t.Fatalf("age-capped ad: %d users against %d uncapped, shared=%v", len(capped), len(first), &capped[0] == &first[0])
	}
	if len(p.resolved) != 2 {
		t.Errorf("%d resolved lists for 2 distinct targetings", len(p.resolved))
	}

	writes := regexp.MustCompile(`\.audience(\[[^\]]*\])?\s*([-+*/|&^]?=[^=]|\+\+|--)|(append|copy|clear|sort\.\w+|slices\.\w+)\(\s*[\w.]*\.audience\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if writes.MatchString(line) {
				t.Errorf("%s:%d writes through a shared audience list: %s", name, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestResolveMatchesOracle: over the shapes of targeting the tree produces,
// the shared list equals the per-ad oracle element for element — resolved
// cold, resolved again from the table, and re-derived by a fresh platform
// replaying the creator's mutations (which carry no list). The same seeded
// day then leaves creator and replayer with equal State() bytes.
func TestResolveMatchesOracle(t *testing.T) {
	p, f := newTestPlatform(t, 922)
	var muts []Mutation
	p.SetMutationHook(func(m Mutation) { muts = append(muts, m) })
	one := uploadBalancedAudience(t, p, f, 20, 42)
	two := uploadBalancedAudience(t, p, f, 20, 43) // overlaps the first: same strata, other draws
	look, err := p.CreateLookalikeAudience("lookalike", one, 900)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := p.CreateCampaign("oracle", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		tg   Targeting
	}{
		{"one audience", Targeting{CustomAudienceIDs: []string{one}}},
		{"age-capped", Targeting{CustomAudienceIDs: []string{one}, AgeMax: 45}},
		{"gender and state", Targeting{CustomAudienceIDs: []string{one}, Genders: []demo.Gender{demo.GenderFemale}, States: []demo.State{demo.StateNC}}},
		{"two overlapping", Targeting{CustomAudienceIDs: []string{one, two}}},
		{"two, other order", Targeting{CustomAudienceIDs: []string{two, one}}},
		{"lookalike", Targeting{CustomAudienceIDs: []string{look.ID}}},
	}
	want := map[string][]int32{} // by ad ID
	var ids []string
	for _, sh := range shapes {
		oracle, err := oracleResolvePerAd(p, &sh.tg)
		if err != nil {
			t.Fatalf("%s: oracle: %v", sh.name, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := p.resolveAudience(&sh.tg)
			if err != nil || !slices.Equal(got, oracle) {
				t.Fatalf("%s, %s: %d users (err %v), oracle %d", sh.name, pass, len(got), err, len(oracle))
			}
		}
		ad, err := p.CreateAd(cmp.ID, Creative{Headline: "h"}, sh.tg, 200)
		if err != nil {
			t.Fatal(err)
		}
		want[ad.ID] = oracle
		ids = append(ids, ad.ID)
	}
	if a, b := want[ids[3]], want[ids[4]]; !slices.Equal(a, b) || len(a) <= len(want[ids[0]]) {
		t.Fatalf("the two-audience shapes resolve %d and %d users against %d for one: the fixture must overlap without nesting", len(a), len(b), len(want[ids[0]]))
	}

	p2, _ := newTestPlatform(t, 922)
	for i := range muts {
		if err := p2.ApplyMutation(&muts[i]); err != nil {
			t.Fatalf("replaying mutation %d (%s): %v", i, muts[i].Kind, err)
		}
	}
	for _, id := range ids {
		if got := p2.ads[id].audience; !slices.Equal(got, want[id]) {
			t.Fatalf("%s after replay: %d users, oracle %d", id, len(got), len(want[id]))
		}
	}
	if a, b := p.Inventory(), p2.Inventory(); a.TargetedUsers != b.TargetedUsers || a.TargetedUsers == 0 {
		t.Fatalf("targeted users: creator %d, replayer %d", a.TargetedUsers, b.TargetedUsers)
	}
	for _, q := range []*Platform{p, p2} {
		if err := q.RunDayWorkers(ids, 77, 1); err != nil {
			t.Fatal(err)
		}
	}
	if stateJSON(t, p) != stateJSON(t, p2) {
		t.Fatal("the same seeded day left creator and replayer in different states")
	}
}

// TestAudienceOrderSharesOneList: a union does not depend on the order its
// audiences are named in, nor on one being named twice, so the three ads hold
// one list (ROADMAP item 5e) — and a day over them leaves the State() bytes
// it left while each spelling resolved a list of its own.
func TestAudienceOrderSharesOneList(t *testing.T) {
	p, f := newTestPlatform(t, 928)
	one := uploadBalancedAudience(t, p, f, 20, 44)
	two := uploadBalancedAudience(t, p, f, 20, 45)
	cmp, err := p.CreateCampaign("permuted", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, order := range [][]string{{one, two}, {two, one}, {one, two, one}} {
		img := image.Features{HasPerson: true, GenderAxis: 0.9 - 0.9*float64(i), RaceAxis: -0.9 + 0.9*float64(i), AgeYears: 30}
		ad, err := p.CreateAd(cmp.ID, Creative{Image: img, Headline: "h"}, Targeting{CustomAudienceIDs: order}, 300)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ad.ID)
		if got, first := p.ads[ad.ID].audience, p.ads[ids[0]].audience; &got[0] != &first[0] || len(got) != len(first) {
			t.Errorf("audiences %v resolved a list of their own", order)
		}
		if got := p.ads[ad.ID].Targeting.CustomAudienceIDs; !slices.Equal(got, order) {
			t.Errorf("the ad records audiences %v, created with %v", got, order)
		}
	}
	if len(p.resolved) != 1 {
		t.Errorf("%d resolved lists for one targeting spelled three ways", len(p.resolved))
	}
	if err := p.RunDayWorkers(ids, 78, 1); err != nil {
		t.Fatal(err)
	}
	const want = "5dac0a42bdfd2f94895f4ea4f267f84d83212caf510fdc7e2df54d3f4ca4a0f9"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stateJSON(t, p)))); got != want {
		t.Errorf("state digest after the day %s, want %s", got, want)
	}
}

// allocatedBytes reports the heap bytes fn allocates (tests in this package
// do not run in parallel, so the process-wide counter is fn's own).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAdMemoryIndependentOfAudienceSize: the first ad on an unfiltered
// targeting allocates the audience's ascending list, 4 B a member, and holds
// that very list (as int lists with a filtered copy per targeting it cost
// 2 × 8 B). Once a targeting is resolved, what another ad on it allocates
// does not depend on how many users it reaches — to within 1 KB an ad (the
// race detector's sync.Pool drops items at random, so fmt's buffers make the
// totals wobble by a few KB there).
func TestAdMemoryIndependentOfAudienceSize(t *testing.T) {
	var bytes []uint64
	for _, members := range []int{2000, 20000} {
		p, _ := newTestPlatform(t, 923)
		tg := Targeting{CustomAudienceIDs: []string{installAudience(p, userRange(0, members))}}
		cmp, err := p.CreateCampaign("memory", ObjectiveTraffic, SpecialNone, 2019)
		if err != nil {
			t.Fatal(err)
		}
		create := func() {
			if _, err := p.CreateAd(cmp.ID, Creative{Headline: "h"}, tg, 100); err != nil {
				t.Fatal(err)
			}
		}
		if first := allocatedBytes(create); first > uint64(4*members+4096) {
			t.Errorf("the first ad on %d members allocated %d B, want one 4 B × members list and the ad", members, first)
		}
		bytes = append(bytes, allocatedBytes(func() {
			for n := 2; n <= 200; n++ {
				create()
			}
		}))
	}
	if diff := max(bytes[0], bytes[1]) - min(bytes[0], bytes[1]); diff > 199*1024 {
		t.Fatalf("ads 2..200 allocate %d B on a 2 000-member targeting and %d B on a 20 000-member one", bytes[0], bytes[1])
	}
	t.Logf("ads 2..200: %d B at 2 000 members, %d B at 20 000", bytes[0], bytes[1])
}

// TestMutationPayloadOnlyForAHook: with no hook installed an upload builds no
// AudienceState — nothing member-sized is allocated beyond the match's own
// list — and with one installed the emitted record is byte for byte the one
// the WAL has always held.
func TestMutationPayloadOnlyForAHook(t *testing.T) {
	p, f := newTestPlatform(t, 924)
	const n = 20000
	keys := make([]population.PIIKey, n)
	for i := range keys {
		key, ok := population.DecodePIIKey(f.pop.View(i).PIIKey())
		if !ok {
			t.Fatalf("account %d has an undecodable key", i)
		}
		keys[i] = key
	}
	upload := func() *CustomAudience {
		t.Helper()
		ca, err := p.CreateCustomAudienceFromKeys("upload", keys)
		if err != nil || ca.Size != n {
			t.Fatalf("upload: %v, %+v", err, ca)
		}
		return ca
	}
	f.pop.MatchPII(keys[:1]) // the first match builds the population's PII index
	// The match allocates its 4 B × n member list and a population bitset.
	if got := allocatedBytes(func() { upload() }); got >= 6*n {
		t.Fatalf("hook-less upload of %d members allocated %d B: more than one member-sized list", n, got)
	}

	var emitted []Mutation
	p.SetMutationHook(func(m Mutation) { emitted = append(emitted, m) })
	ca := upload()
	if len(emitted) != 1 {
		t.Fatalf("%d mutations emitted, want 1", len(emitted))
	}
	got, err := json.Marshal(emitted[0])
	if err != nil {
		t.Fatal(err)
	}
	members, _ := json.Marshal(userRange(0, n))
	want := fmt.Sprintf(`{"kind":"audience_created","next_id":0,"audience":{"id":%q,"name":"upload","size":%d,"members":%s}}`, ca.ID, n, members)
	if string(got) != want {
		t.Fatalf("emitted record:\n got %.160s…\nwant %.160s…", got, want)
	}
	if emitted[0].Audience.Members[0] = -1; ca.members[0] != 0 {
		t.Fatal("the emitted payload aliases the live audience")
	}
}

// TestRestoreDropsResolvedLists: a platform that has resolved ca-1 and is
// then restored to a state whose ca-1 has other members serves the new ones.
func TestRestoreDropsResolvedLists(t *testing.T) {
	p, _ := newTestPlatform(t, 925)
	caID := installAudience(p, userRange(0, 500))
	cmp, err := p.CreateCampaign("stale", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	tg := Targeting{CustomAudienceIDs: []string{caID}}
	if _, err := p.CreateAd(cmp.ID, Creative{Headline: "h"}, tg, 100); err != nil {
		t.Fatal(err)
	}
	st := p.State()
	other := userRange(1000, 300)
	st.Audiences[0].Members = other
	if err := p.Restore(st, false); err != nil {
		t.Fatal(err)
	}
	ad, err := p.CreateAd(cmp.ID, Creative{Headline: "h"}, tg, 100)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := oracleResolvePerAd(p, &tg)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range p.ads {
		if !slices.Equal(a.audience, fresh) {
			t.Errorf("%s targets %d users after Restore, a fresh resolution %d", id, len(a.audience), len(fresh))
		}
	}
	if err := p.RunDayWorkers([]string{ad.ID}, 5, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := p.Insights(ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reach == 0 || stats.Reach > len(other) {
		t.Fatalf("reach %d on an audience of %d", stats.Reach, len(other))
	}
}

// TestReplayedAdNeedsItsAudience: the ad record no longer embeds a user list,
// so an ad replayed ahead of its audience is refused by name rather than
// installed targeting nobody.
func TestReplayedAdNeedsItsAudience(t *testing.T) {
	p, _ := newTestPlatform(t, 926)
	m := Mutation{Kind: MutAdCreated, NextID: 2, Ad: &AdState{
		ID: "ad-2", CampaignID: "cmp-1", Status: StatusActive, DailyBudgetCents: 100,
		Targeting: Targeting{CustomAudienceIDs: []string{"ca-7"}},
	}}
	err := p.ApplyMutation(&m)
	if err == nil || !strings.Contains(err.Error(), "ad-2") || !strings.Contains(err.Error(), `"ca-7"`) {
		t.Fatalf("ad replayed before its audience: %v, want an error naming ad-2 and ca-7", err)
	}
	if _, err := p.Ad("ad-2"); err == nil {
		t.Fatal("the refused ad was installed")
	}
}

// TestVersion1StateIsReadNotTrusted: a version-1 state embedded every ad's
// user list. This build still restores one, through the same decoder, and
// derives the list from the targeting whatever the embedded array says.
func TestVersion1StateIsReadNotTrusted(t *testing.T) {
	p, _ := newTestPlatform(t, 927)
	v1 := `{"version":1,"next_id":2,
		"audiences":[{"id":"ca-1","name":"a","size":3,"members":[30,10,20]}],
		"campaigns":[{"ID":"cmp-1","Name":"c"}],
		"ads":[{"id":"ad-2","campaign_id":"cmp-1","targeting":{"CustomAudienceIDs":["ca-1"]},
			"daily_budget_cents":100,"status":1,"audience":[1,2,3,4,5]}],
		"stats":[]}`
	var st State
	if err := json.Unmarshal([]byte(v1), &st); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(&st, false); err != nil {
		t.Fatal(err)
	}
	if got := p.ads["ad-2"].audience; !slices.Equal(got, []int32{10, 20, 30}) {
		t.Fatalf("restored ad targets %v, want the resolved [10 20 30]", got)
	}
	if got := p.State().Version; got != 2 {
		t.Errorf("state written as version %d, want 2", got)
	}
	if strings.Contains(stateJSON(t, p), `"audience"`) {
		t.Error("State() still serialises a per-ad audience")
	}
}
