package marketing

import (
	"encoding/json"
	"testing"

	"github.com/adaudit/impliedidentity/internal/privacy"
)

func sampleInsights() *InsightsResponse {
	return &InsightsResponse{
		AdID:        "ad-3",
		Impressions: 400,
		Reach:       310,
		Clicks:      12,
		SpendCents:  200,
		Hourly:      []int{100, 150, 150},
		Breakdown: []BreakdownRow{
			{Age: "18-24", Gender: "female", Region: "FL", Impressions: 140},
			{Age: "18-24", Gender: "male", Region: "FL", Impressions: 6},
			{Age: "25-34", Gender: "female", Region: "FL", Impressions: 254},
		},
	}
}

// TestPrivatizeInsightsOffIsByteIdentical: level off must not change the
// wire bytes at all — no privacy block, no reordering, nothing.
func TestPrivatizeInsightsOffIsByteIdentical(t *testing.T) {
	resp := sampleInsights()
	before, _ := json.Marshal(resp)
	got := PrivatizeInsights(privacy.Config{}, resp)
	if got != resp {
		t.Fatal("level off should return the input unchanged")
	}
	after, _ := json.Marshal(got)
	if string(before) != string(after) {
		t.Fatalf("wire bytes changed at level off:\n before %s\n after  %s", before, after)
	}
}

// TestPrivatizeInsightsKAnon: the small cell is suppressed, a complementary
// cell goes with it, and the wire privacy block records both.
func TestPrivatizeInsightsKAnon(t *testing.T) {
	cfg := privacy.Config{Level: privacy.LevelKAnon, K: 20}
	resp := sampleInsights()
	got := PrivatizeInsights(cfg, resp)
	if len(resp.Breakdown) != 3 {
		t.Fatal("input response was mutated")
	}
	if got.Privacy == nil || got.Privacy.Level != "k-anon" || got.Privacy.K != 20 {
		t.Fatalf("privacy block %+v", got.Privacy)
	}
	if got.Privacy.SuppressedCells != 2 || len(got.Breakdown) != 1 {
		t.Fatalf("suppressed %d cells, released %d — want 2 suppressed (primary + complementary), 1 released",
			got.Privacy.SuppressedCells, len(got.Breakdown))
	}
	if got.Breakdown[0].Impressions != 254 {
		t.Fatalf("released cell %+v, want the 254-impression cell", got.Breakdown[0])
	}
	if got.Impressions != 400 || got.SpendCents != 200 {
		t.Fatalf("k-anon must not perturb totals: %+v", got)
	}
	// Idempotence at the wire level: a privatized response passes through.
	if again := PrivatizeInsights(cfg, got); again != got {
		t.Fatal("re-privatizing a privatized response must be a no-op")
	}
}

// TestPrivatizeInsightsDPDeterministic: same policy, same response → same
// noisy bytes; different seed → different stream (with overwhelming
// probability over this many cells).
func TestPrivatizeInsightsDPDeterministic(t *testing.T) {
	cfg := privacy.Config{Level: privacy.LevelKAnonDP, K: 2, Epsilon: 0.5, Seed: 11}
	a, _ := json.Marshal(PrivatizeInsights(cfg, sampleInsights()))
	b, _ := json.Marshal(PrivatizeInsights(cfg, sampleInsights()))
	if string(a) != string(b) {
		t.Fatalf("same policy diverged:\n %s\n %s", a, b)
	}
	cfg.Seed = 12
	c, _ := json.Marshal(PrivatizeInsights(cfg, sampleInsights()))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical noisy output")
	}
	// SpendCents is exempt from noise by design.
	var round InsightsResponse
	if err := json.Unmarshal(a, &round); err != nil {
		t.Fatal(err)
	}
	if round.SpendCents != 200 {
		t.Fatalf("SpendCents perturbed to %v", round.SpendCents)
	}
}

// TestSetPrivacyRefusesInvalidPolicy: a policy Validate refuses — an unknown
// level, a negative K — is refused with its error, and the policy already in
// force keeps answering.
func TestSetPrivacyRefusesInvalidPolicy(t *testing.T) {
	kept := privacy.Config{Level: privacy.LevelKAnon, K: 20}
	s := &Server{}
	if err := s.SetPrivacy(kept); err != nil {
		t.Fatalf("valid policy refused: %v", err)
	}
	for _, bad := range []privacy.Config{
		{Level: privacy.LevelKAnonDP + 1, K: 20},
		{Level: privacy.LevelKAnon, K: -1},
	} {
		if err := s.SetPrivacy(bad); err == nil {
			t.Errorf("SetPrivacy(%+v) accepted", bad)
		}
		if got := s.privacyConfig(); got != kept {
			t.Errorf("after refusing %+v the policy is %+v, want %+v", bad, got, kept)
		}
	}
	got := PrivatizeInsights(s.privacyConfig(), sampleInsights())
	if got.Privacy == nil || got.Privacy.Level != "k-anon" || got.Privacy.K != 20 {
		t.Errorf("insights privatized under %+v, want the kept k-anon K=20", got.Privacy)
	}
}
