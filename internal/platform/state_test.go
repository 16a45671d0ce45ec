package platform

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/adaudit/impliedidentity/internal/image"
)

// stateJSON renders the account state canonically for comparison.
func stateJSON(t *testing.T, p *Platform) string {
	t.Helper()
	b, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// buildAccount drives one platform through every durable mutation kind:
// audience upload, campaign, active ads, a forced rejection + appeal, and a
// delivered day. Returns the IDs of the delivered ads.
func buildAccount(t *testing.T, p *Platform, f *fixture) []string {
	t.Helper()
	caID := uploadBalancedAudience(t, p, f, 20, 31)
	cmp, err := p.CreateCampaign("round-trip", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	targeting := Targeting{CustomAudienceIDs: []string{caID}}
	imgA := image.Features{HasPerson: true, GenderAxis: 0.9, RaceAxis: -0.9, AgeYears: 30}
	imgB := image.Features{HasPerson: true, GenderAxis: -0.9, RaceAxis: 0.9, AgeYears: 55}
	adA, err := p.CreateAd(cmp.ID, Creative{Image: imgA, Headline: "h"}, targeting, 300)
	if err != nil {
		t.Fatal(err)
	}
	adB, err := p.CreateAd(cmp.ID, Creative{Image: imgB, Headline: "h"}, targeting, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Force one rejection and appeal it back to active, so the appeal
	// mutation is exercised too.
	if err := p.SetReviewRejectProb(1); err != nil {
		t.Fatal(err)
	}
	adC, err := p.CreateAd(cmp.ID, Creative{Image: imgA, Headline: "h"}, targeting, 100)
	if err != nil {
		t.Fatal(err)
	}
	if adC.Status != StatusRejected {
		t.Fatalf("ad with reject prob 1: status %v", adC.Status)
	}
	if err := p.SetReviewRejectProb(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppealAd(adC.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.RunDayWorkers([]string{adA.ID, adB.ID}, 999, 1); err != nil {
		t.Fatal(err)
	}
	return []string{adA.ID, adB.ID}
}

func TestStateRoundTrip(t *testing.T) {
	p1, f := newTestPlatform(t, 104)
	var muts []Mutation
	p1.SetMutationHook(func(m Mutation) { muts = append(muts, m) })
	delivered := buildAccount(t, p1, f)
	want := stateJSON(t, p1)

	// Serialize through JSON (the store's wire format) and restore into a
	// fresh platform built from the same world.
	var decoded State
	if err := json.Unmarshal([]byte(want), &decoded); err != nil {
		t.Fatal(err)
	}
	p2, _ := newTestPlatform(t, 104)
	if err := p2.Restore(&decoded, false); err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged after Restore:\n got %.200s…\nwant %.200s…", got, want)
	}
	// Restored insights are queryable and identical.
	for _, id := range delivered {
		s1, err1 := p1.Insights(id)
		s2, err2 := p2.Insights(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("insights after restore: %v / %v", err1, err2)
		}
		if s1.Impressions != s2.Impressions || s1.Reach != s2.Reach || s1.SpendCents != s2.SpendCents {
			t.Fatalf("ad %s: restored insights differ: %+v vs %+v", id, s1, s2)
		}
	}

	// The emitted mutation log replays to the same state, and replaying it
	// twice converges (idempotence — recovery replays WAL tails that overlap
	// the snapshot).
	if len(muts) != 7 {
		t.Fatalf("captured %d mutations, want 7 (audience, campaign, 3 ads, appeal, delivery)", len(muts))
	}
	p3, _ := newTestPlatform(t, 104)
	for round := 0; round < 2; round++ {
		for i := range muts {
			if err := p3.ApplyMutation(&muts[i]); err != nil {
				t.Fatalf("round %d mutation %d (%s): %v", round, i, muts[i].Kind, err)
			}
		}
		if got := stateJSON(t, p3); got != want {
			t.Fatalf("round %d: replayed state diverged", round)
		}
	}
}

func TestRestoreRejectsVersionMismatch(t *testing.T) {
	p, _ := newTestPlatform(t, 104)
	if err := p.Restore(&State{Version: StateVersion + 1}, false); err == nil {
		t.Fatal("future state version: want error")
	}
	if err := p.Restore(nil, false); err == nil {
		t.Fatal("nil state: want error")
	}
}

// A restore winds the review stream back as well as forward: a platform
// that drew twice more than the state it restores (an unacked create or
// appeal before a crash) reviews the next ads exactly as a fresh platform
// restored to that state does.
func TestRestoreRewindsTheReviewStream(t *testing.T) {
	ahead, f := newTestPlatform(t, 105)
	if err := ahead.SetReviewRejectProb(0.5); err != nil {
		t.Fatal(err)
	}
	caID := uploadBalancedAudience(t, ahead, f, 5, 7)
	cmp, err := ahead.CreateCampaign("cursor", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	targeting := Targeting{CustomAudienceIDs: []string{caID}}
	img := image.Features{HasPerson: true, GenderAxis: 0.5, AgeYears: 40}
	createAds := func(p *Platform, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := p.CreateAd(cmp.ID, Creative{Image: img, Headline: "h"}, targeting, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	createAds(ahead, 3)
	st := ahead.State()
	createAds(ahead, 2)

	fresh, _ := newTestPlatform(t, 105)
	if err := fresh.SetReviewRejectProb(0.5); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Platform{ahead, fresh} {
		if err := p.Restore(st, false); err != nil {
			t.Fatal(err)
		}
		createAds(p, 8)
	}
	if got, want := stateJSON(t, ahead), stateJSON(t, fresh); got != want {
		t.Fatalf("a platform restored from ahead of the state reviews differently from a fresh one:\n got %.300s\nwant %.300s", got, want)
	}
}

// A state transfer keeps the receiver's delivery half and refuses what would
// hide a lost one: a completed ad the receiver lacks, and an open session.
func TestRestoreKeepingDelivery(t *testing.T) {
	peer, f := newTestPlatform(t, 104)
	delivered := buildAccount(t, peer, f)
	half := peer.State()
	half.Stats = nil

	empty, _ := newTestPlatform(t, 104)
	if err := empty.Restore(half, true); !errors.Is(err, ErrDeliveryLost) {
		t.Fatalf("transfer of completed ads onto a shard without them: %v, want ErrDeliveryLost", err)
	}
	if inv := empty.Inventory(); inv.Ads != 0 {
		t.Fatalf("a refused transfer installed %d ads", inv.Ads)
	}

	var appealed []string // the ad buildAccount appealed, still active
	for _, ad := range half.Ads {
		if ad.Status == StatusActive {
			appealed = append(appealed, ad.ID)
		}
	}

	// The peer takes its own half back: its stats stay, and an ad the half
	// shows uncompleted keeps the peer's COMPLETED bit.
	want := stateJSON(t, peer)
	for i := range half.Ads {
		if half.Ads[i].ID == delivered[0] {
			half.Ads[i].Status = StatusActive
		}
	}
	if err := peer.Restore(half, true); err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, peer); got != want {
		t.Fatalf("a transfer of the platform's own half moved its delivery:\n got %.300s\nwant %.300s", got, want)
	}

	if _, err := peer.BeginDaySession("open", appealed, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := peer.Restore(half, true); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("transfer under an open session: %v, want ErrSessionActive", err)
	}
}

func TestApplyMutationRejectsForeignWorld(t *testing.T) {
	p, _ := newTestPlatform(t, 104)
	m := Mutation{Kind: MutAudienceCreated, Audience: &AudienceState{
		ID: "ca-1", Name: "alien", Size: 1, Members: []int32{int32(p.NumUsers()) + 5},
	}}
	if err := p.ApplyMutation(&m); err == nil {
		t.Fatal("audience index outside population: want error")
	}
	if n := len(p.State().Audiences); n != 0 {
		t.Fatalf("failed mutation installed %d audiences, want none", n)
	}
}
