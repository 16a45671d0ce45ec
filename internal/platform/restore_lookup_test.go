package platform

// Regression suite for the restore path of the columnar population: the
// population keeps one PII index, the builder's, for its whole life.
// Historically a byPII map could be left stale after Platform.Restore; these
// tests pin that a restored platform still PII-matches new audience uploads
// and delivers byte-identically to the platform it was cloned from.

import (
	"encoding/json"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

func TestRestoreThenPIIMatchAndDelivery(t *testing.T) {
	f := sharedFixture(t)
	mk := func() *Platform {
		p, err := New(testConfig(601), f.pop, f.behave)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := mk()
	caID := uploadBalancedAudience(t, p1, f, 50, 61)

	var st State
	b, err := json.Marshal(p1.State())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	p2 := mk()
	if err := p2.Restore(&st, false); err != nil {
		t.Fatal(err)
	}

	// A fresh PII upload on the restored platform must match the same users
	// the origin platform matches — the lookup index is not stale.
	a2 := balancedAudience(t, p2, f, 40, 62)
	a1 := balancedAudience(t, p1, f, 40, 62)
	if a1.Size == 0 || a1.Size != a2.Size {
		t.Fatalf("post-restore audience size %d, origin %d", a2.Size, a1.Size)
	}

	// Identical ad sets over the restored audience deliver byte-identically
	// on both platforms, sequential and sharded.
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	specs := []diffAdSpec{{img: img, budget: 500_000}, {img: img, budget: 700_000}}
	for _, workers := range []int{1, 4} {
		ids1 := createAdSet(t, p1, ObjectiveTraffic, caID, specs)
		ids2 := createAdSet(t, p2, ObjectiveTraffic, caID, specs)
		if err := p1.RunDayWorkers(ids1, 9601, workers); err != nil {
			t.Fatal(err)
		}
		if err := p2.RunDayWorkers(ids2, 9601, workers); err != nil {
			t.Fatal(err)
		}
		if d1, d2 := deliveryDigest(t, p1, ids1), deliveryDigest(t, p2, ids2); d1 != d2 {
			t.Errorf("workers=%d: restored platform delivery diverged:\n got %s\nwant %s", workers, d2, d1)
		}
	}
}
