package platform

import (
	"reflect"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// TestInsightsReturnsDeepCopy is the regression test for the aliasing bug
// where Insights handed out the engine's live *AdStats: a caller mutating
// the returned report (maps and series included) corrupted the frozen
// record every later Insights call read.
func TestInsightsReturnsDeepCopy(t *testing.T) {
	f := sharedFixture(t)
	p, err := New(testConfig(701), f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := uploadBalancedAudience(t, p, f, 30, 71)
	img := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: img, budget: 500}})
	if err := p.RunDayWorkers(ids, 7071, 1); err != nil {
		t.Fatal(err)
	}

	first, err := p.Insights(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Impressions == 0 || len(first.Breakdown) == 0 || len(first.RaceOracle) == 0 {
		t.Fatalf("scenario too small to exercise the copy: %+v", first)
	}
	pristine := first.clone()

	// Vandalize every part of the returned report.
	first.Impressions = -1
	first.Clicks = -1
	first.Reach = -1
	first.SpendCents = -1
	for k := range first.Breakdown {
		first.Breakdown[k] = -1
	}
	first.Breakdown[BreakdownKey{Region: demo.StateOther}] = 42
	for k := range first.RaceOracle {
		first.RaceOracle[k] = -1
	}
	for i := range first.HourlySeries {
		first.HourlySeries[i] = -1
	}

	second, err := p.Insights(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, pristine) {
		t.Errorf("mutating a returned report leaked into the frozen record:\n got %+v\nwant %+v", second, pristine)
	}
}
