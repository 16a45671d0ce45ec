package population

import (
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

func testBehavior(t *testing.T) *Behavior {
	t.Helper()
	b, err := NewBehavior(DefaultBehaviorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func imgOf(p demo.Profile) image.Features { return image.FromProfile(p) }

// mkUser builds a standalone single-user view, backed by its own one-row
// column set, for behaviour-model tests: a Miami user with activity 1 and
// the zero PII digest.
func mkUser(age int, g demo.Gender, r demo.Race) UserView {
	c := &Columns{zipDict: []string{"33101"}}
	c.appendRow(uint8(age), g, r, demo.StateFL, 0, 1, [32]byte{})
	return UserView{c: c}
}

func TestNewBehaviorValidation(t *testing.T) {
	cfg := DefaultBehaviorConfig()
	cfg.BaseCTR = 0
	if _, err := NewBehavior(cfg); err == nil {
		t.Error("zero base CTR: want error")
	}
	cfg = DefaultBehaviorConfig()
	cfg.AffinityScale = -1
	if _, err := NewBehavior(cfg); err == nil {
		t.Error("negative scale: want error")
	}
}

func TestClickProbBounds(t *testing.T) {
	b := testBehavior(t)
	users := []UserView{
		mkUser(20, demo.GenderFemale, demo.RaceBlack),
		mkUser(70, demo.GenderMale, demo.RaceWhite),
	}
	for _, p := range demo.AllProfiles() {
		img := imgOf(p)
		for i := range users {
			pr := b.ClickProb(users[i], img)
			if pr <= 0 || pr >= 1 {
				t.Fatalf("ClickProb out of range: %v", pr)
			}
		}
	}
}

func TestRaceHomophily(t *testing.T) {
	b := testBehavior(t)
	blackUser := mkUser(30, demo.GenderMale, demo.RaceBlack)
	whiteUser := mkUser(30, demo.GenderMale, demo.RaceWhite)
	blackImg := imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	whiteImg := imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	if b.ClickProb(blackUser, blackImg) <= b.ClickProb(blackUser, whiteImg) {
		t.Error("Black user should engage more with Black-presenting image")
	}
	if b.ClickProb(whiteUser, whiteImg) <= b.ClickProb(whiteUser, blackImg) {
		t.Error("white user should engage more with white-presenting image")
	}
}

func TestChildImagesEngageWomen(t *testing.T) {
	b := testBehavior(t)
	woman := mkUser(45, demo.GenderFemale, demo.RaceWhite)
	man := mkUser(45, demo.GenderMale, demo.RaceWhite)
	child := imgOf(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedChild})
	adult := imgOf(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	womanLift := b.ClickProb(woman, child) / b.ClickProb(woman, adult)
	manLift := b.ClickProb(man, child) / b.ClickProb(man, adult)
	if womanLift <= manLift {
		t.Errorf("child-image lift: woman %v <= man %v", womanLift, manLift)
	}
	// The effect strengthens with the woman's age (Figure 3C: older women
	// see more images of children).
	older := mkUser(65, demo.GenderFemale, demo.RaceWhite)
	youngW := mkUser(25, demo.GenderFemale, demo.RaceWhite)
	if b.ClickProb(older, child)/b.ClickProb(older, adult) <= b.ClickProb(youngW, child)/b.ClickProb(youngW, adult) {
		t.Error("child-image lift should grow with the woman's age")
	}
}

func TestYoungWomenImagesEngageOlderMen(t *testing.T) {
	b := testBehavior(t)
	olderMan := mkUser(60, demo.GenderMale, demo.RaceWhite)
	youngerMan := mkUser(30, demo.GenderMale, demo.RaceWhite)
	teenWoman := imgOf(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedTeen})
	teenMan := imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedTeen})
	// Older men: teen-woman image beats teen-man image by more than the age
	// proximity penalty difference.
	lift := b.ClickProb(olderMan, teenWoman) / b.ClickProb(olderMan, teenMan)
	if lift <= 1.5 {
		t.Errorf("older-man teen-woman lift %v, want > 1.5", lift)
	}
	// The effect is specific to men 55+.
	youngLift := b.ClickProb(youngerMan, teenWoman) / b.ClickProb(youngerMan, teenMan)
	if lift <= youngLift {
		t.Errorf("lift should concentrate in older men: %v <= %v", lift, youngLift)
	}
}

func TestAgeProximity(t *testing.T) {
	b := testBehavior(t)
	young := mkUser(22, demo.GenderMale, demo.RaceWhite)
	adultImg := imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	elderlyImg := imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedElderly})
	if b.ClickProb(young, adultImg) <= b.ClickProb(young, elderlyImg) {
		t.Error("young user should engage more with age-proximate image")
	}
}

func TestAffinityScaleZeroRemovesContentEffects(t *testing.T) {
	cfg := DefaultBehaviorConfig()
	cfg.AffinityScale = 0
	b, err := NewBehavior(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := mkUser(30, demo.GenderFemale, demo.RaceBlack)
	p1 := b.ClickProb(u, imgOf(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedChild}))
	p2 := b.ClickProb(u, imgOf(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedElderly}))
	if p1 != p2 {
		t.Errorf("scale 0 should make content irrelevant: %v vs %v", p1, p2)
	}
}

func TestNoPersonImageUsesBaseRate(t *testing.T) {
	b := testBehavior(t)
	u := mkUser(30, demo.GenderFemale, demo.RaceBlack)
	p := b.ClickProb(u, image.Features{})
	if diff := p - DefaultBehaviorConfig().BaseCTR; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("no-person image prob %v, want base rate", p)
	}
}

func TestJobAffinityComposition(t *testing.T) {
	// Lumber skews male and white; janitor skews Black; nurse skews female.
	if JobAffinity("lumber", demo.GenderMale, demo.RaceWhite) <= JobAffinity("lumber", demo.GenderFemale, demo.RaceBlack) {
		t.Error("lumber should favor white men")
	}
	if JobAffinity("janitor", demo.GenderFemale, demo.RaceBlack) <= JobAffinity("janitor", demo.GenderMale, demo.RaceWhite) {
		t.Error("janitor should favor Black women")
	}
	if JobAffinity("nurse", demo.GenderFemale, demo.RaceWhite) <= JobAffinity("nurse", demo.GenderMale, demo.RaceWhite) {
		t.Error("nurse should favor women")
	}
	if JobAffinity("unknown-job", demo.GenderMale, demo.RaceWhite) != 0 {
		t.Error("unknown job should contribute 0")
	}
}

func TestKnownJobCoversImageJobTypes(t *testing.T) {
	for _, j := range image.JobTypes() {
		if _, ok := jobShares[j]; !ok {
			t.Errorf("behaviour model missing composition for job %q", j)
		}
	}
	if _, ok := jobShares["astronaut"]; ok {
		t.Error("astronaut should be unknown")
	}
}

func TestJobAdsShiftEngagement(t *testing.T) {
	b := testBehavior(t)
	whiteMan := mkUser(35, demo.GenderMale, demo.RaceWhite)
	blackWoman := mkUser(35, demo.GenderFemale, demo.RaceBlack)
	// Neutral face so the job-composition effect is isolated from homophily.
	face := image.Features{HasPerson: true, AgeYears: 30}
	lumber := face
	lumber.Job = "lumber"
	janitor := face
	janitor.Job = "janitor"
	if b.ClickProb(whiteMan, lumber) <= b.ClickProb(blackWoman, lumber) {
		t.Error("lumber ad should engage white men more")
	}
	if b.ClickProb(blackWoman, janitor) <= b.ClickProb(whiteMan, janitor) {
		t.Error("janitor ad should engage Black women more")
	}
}
