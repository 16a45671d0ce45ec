package platform

// Property tests on delivery invariants that must hold for every engine
// configuration. Unlike the differential suite, these scenarios use tight
// budgets so ads exhaust mid-day and the overspend clamp actually fires,
// and a small frequency cap so cap pressure is real.

import (
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// assertDeliveryInvariants checks the engine-level invariants on one ad's
// report: budget never exceeded, series/breakdown/oracle all account for
// exactly the impressions, reach consistent with the frequency cap.
func assertDeliveryInvariants(t *testing.T, p *Platform, adID string, budgetCents, freqCap, ticks, workers int) {
	t.Helper()
	st, err := p.Insights(adID)
	if err != nil {
		t.Fatal(err)
	}
	label := func(s string) string {
		return fmt.Sprintf("%s (ad %s, workers %d)", s, adID, workers)
	}
	if st.SpendCents > float64(budgetCents) {
		t.Errorf("%s: spend %.0f¢ exceeds daily budget %d¢", label("overspend"), st.SpendCents, budgetCents)
	}
	if len(st.HourlySeries) != ticks {
		t.Fatalf("%s: hourly series has %d ticks, want %d", label("series"), len(st.HourlySeries), ticks)
	}
	sum := 0
	for _, v := range st.HourlySeries {
		if v < 0 {
			t.Errorf("%s: negative hourly count %d", label("series"), v)
		}
		sum += v
	}
	if sum != st.Impressions {
		t.Errorf("%s: hourly series sums to %d, impressions %d", label("series"), sum, st.Impressions)
	}
	if st.Reach > st.Impressions {
		t.Errorf("%s: reach %d exceeds impressions %d", label("reach"), st.Reach, st.Impressions)
	}
	if st.Impressions > 0 && st.Reach == 0 {
		t.Errorf("%s: impressions %d with zero reach", label("reach"), st.Impressions)
	}
	if freqCap > 0 && st.Impressions > freqCap*st.Reach {
		// Per-user impressions are capped, so total impressions can never
		// exceed cap × distinct users reached.
		t.Errorf("%s: impressions %d exceed frequency cap %d × reach %d", label("freqcap"), st.Impressions, freqCap, st.Reach)
	}
	if st.Clicks > st.Impressions {
		t.Errorf("%s: clicks %d exceed impressions %d", label("clicks"), st.Clicks, st.Impressions)
	}
	bsum := 0
	for k, v := range st.Breakdown {
		if v <= 0 {
			t.Errorf("%s: non-positive breakdown cell %+v=%d", label("breakdown"), k, v)
		}
		bsum += v
	}
	if bsum != st.Impressions {
		t.Errorf("%s: breakdown totals %d, impressions %d", label("breakdown"), bsum, st.Impressions)
	}
	rsum := 0
	for _, v := range st.RaceOracle {
		rsum += v
	}
	if rsum != st.Impressions {
		t.Errorf("%s: race oracle totals %d, impressions %d", label("oracle"), rsum, st.Impressions)
	}
}

func TestDeliveryInvariantsAcrossWorkerCounts(t *testing.T) {
	f := sharedFixture(t)
	imgWM := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgBF := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})

	configs := []struct {
		name string
		cfg  Config
	}{
		{"paced_tight_budget", func() Config {
			cfg := testConfig(601)
			cfg.FrequencyCap = 2
			return cfg
		}()},
		{"greedy_pacing", func() Config {
			cfg := testConfig(602)
			cfg.GreedyPacing = true
			return cfg
		}()},
	}
	// Budgets small enough that every ad exhausts mid-day, so eligibility
	// shutoff and the overspend clamp both fire on every engine.
	budgets := []int{60, 90}

	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg, f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := uploadBalancedAudience(t, p, f, 50, 61)
			for _, workers := range []int{1, 2, 4, 8} {
				ids := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: imgWM, budget: budgets[0]}, {img: imgBF, budget: budgets[1]}})
				if err := p.RunDayWorkers(ids, 7007, workers); err != nil {
					t.Fatal(err)
				}
				for i, id := range ids {
					assertDeliveryInvariants(t, p, id, budgets[i], tc.cfg.FrequencyCap, tc.cfg.Ticks, workers)
					st, _ := p.Insights(id)
					if st.SpendCents != float64(budgets[i]) {
						// With budgets this tight every engine must spend to
						// exactly the budget: exhaustion plus the clamp pin
						// SpendCents to DailyBudgetCents.
						t.Errorf("workers=%d ad %s: spend %.0f¢, want exactly budget %d¢", workers, id, st.SpendCents, budgets[i])
					}
				}
			}
		})
	}
}
