package image

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/adaudit/impliedidentity/internal/demo"
)

func TestFromProfileImpliedRoundTrip(t *testing.T) {
	for _, p := range demo.AllProfiles() {
		f := FromProfile(p)
		if !f.HasPerson {
			t.Errorf("%v: HasPerson false", p)
		}
		if got := f.ImpliedProfile(); got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
}

func TestImpliedAgeForYearsBoundaries(t *testing.T) {
	cases := map[float64]demo.ImpliedAge{
		5:  demo.ImpliedChild,
		12: demo.ImpliedChild,
		13: demo.ImpliedTeen,
		19: demo.ImpliedTeen,
		20: demo.ImpliedAdult,
		39: demo.ImpliedAdult,
		40: demo.ImpliedMiddleAged,
		61: demo.ImpliedMiddleAged,
		62: demo.ImpliedElderly,
		90: demo.ImpliedElderly,
	}
	for years, want := range cases {
		if got := ImpliedAgeForYears(years); got != want {
			t.Errorf("ImpliedAgeForYears(%v) = %v, want %v", years, got, want)
		}
	}
}

func TestRepresentativeYearsRoundTrip(t *testing.T) {
	// Property: each implied group's representative age maps back to itself.
	for _, a := range demo.AllImpliedAges() {
		if got := ImpliedAgeForYears(a.RepresentativeYears()); got != a {
			t.Errorf("%v -> %v years -> %v", a, a.RepresentativeYears(), got)
		}
	}
}

func TestVectorShapeAndNames(t *testing.T) {
	f := FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	v := f.Vector()
	if len(v) != VectorDim {
		t.Fatalf("Vector length %d != VectorDim %d", len(v), VectorDim)
	}
	if len(FeatureNames()) != VectorDim {
		t.Fatalf("FeatureNames length %d", len(FeatureNames()))
	}
	if v[0] != f.GenderAxis || v[1] != f.RaceAxis {
		t.Error("vector order wrong")
	}
}

func TestNewStockCatalogBalancedAndLabelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cat, err := NewStockCatalog(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Photos) != 100 {
		t.Fatalf("catalog size %d, want 100", len(cat.Photos))
	}
	counts := map[demo.Profile]int{}
	ids := map[string]bool{}
	for _, ph := range cat.Photos {
		counts[ph.Label]++
		if ids[ph.ID] {
			t.Errorf("duplicate photo ID %s", ph.ID)
		}
		ids[ph.ID] = true
		// Annotation must agree with what the image shows.
		if got := ph.Features.ImpliedProfile(); got != ph.Label {
			t.Errorf("photo %s: label %v but image implies %v", ph.ID, ph.Label, got)
		}
	}
	for p, n := range counts {
		if n != 5 {
			t.Errorf("profile %v: %d photos, want 5", p, n)
		}
	}
}

func TestNewStockCatalogErrors(t *testing.T) {
	if _, err := NewStockCatalog(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("perPerson 0: want error")
	}
}

func TestStockNuisanceVarianceHigh(t *testing.T) {
	// Stock photos of the same profile must differ substantially in
	// nuisance space — the contrast the synthetic pipeline removes.
	rng := rand.New(rand.NewSource(2))
	cat, err := NewStockCatalog(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	byProfile := map[demo.Profile][]Features{}
	for _, ph := range cat.Photos {
		byProfile[ph.Label] = append(byProfile[ph.Label], ph.Features)
	}
	var sum float64
	var n int
	for _, fs := range byProfile {
		for i := 0; i < len(fs); i++ {
			for j := i + 1; j < len(fs); j++ {
				sum += NuisanceDistance(fs[i], fs[j])
				n++
			}
		}
	}
	if mean := sum / float64(n); mean < 1.0 {
		t.Errorf("mean within-profile nuisance distance %v, want >= 1 for stock photos", mean)
	}
}

func TestPresentationBiasCouplesSmileToGender(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat, err := NewStockCatalog(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	var fSmile, mSmile float64
	var fN, mN int
	for _, ph := range cat.Photos {
		if ph.Label.Gender == demo.GenderFemale {
			fSmile += ph.Features.Nuisance[NuisanceSmile]
			fN++
		} else {
			mSmile += ph.Features.Nuisance[NuisanceSmile]
			mN++
		}
	}
	if fSmile/float64(fN) <= mSmile/float64(mN) {
		t.Errorf("female-presenting images should smile more on average: %v vs %v",
			fSmile/float64(fN), mSmile/float64(mN))
	}
}

func TestNuisanceDistanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b Features
		for i := range a.Nuisance {
			a.Nuisance[i] = rng.NormFloat64()
			b.Nuisance[i] = rng.NormFloat64()
		}
		d := NuisanceDistance(a, b)
		// Symmetry, non-negativity, identity.
		return d >= 0 && NuisanceDistance(b, a) == d && NuisanceDistance(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompositeOnJobBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	face := FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	out, err := CompositeOnJobBackground(face, "lumber", rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Job != "lumber" {
		t.Errorf("Job = %q", out.Job)
	}
	// Person axes survive compositing.
	if out.GenderAxis != face.GenderAxis || out.RaceAxis != face.RaceAxis || out.AgeYears != face.AgeYears {
		t.Error("compositing must not alter the person axes")
	}

	if _, err := CompositeOnJobBackground(face, "astronaut", rng); err == nil {
		t.Error("unknown job: want error")
	}
	if _, err := CompositeOnJobBackground(Features{}, "lumber", rng); err == nil {
		t.Error("no person: want error")
	}
}

func TestJobTypesMatchPaper(t *testing.T) {
	jobs := JobTypes()
	if len(jobs) != 11 {
		t.Fatalf("JobTypes = %d, want 11 (Ali et al. categories)", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j] {
			t.Errorf("duplicate job %q", j)
		}
		seen[j] = true
	}
	for _, want := range []string{"lumber", "janitor", "supermarket-clerk"} {
		if !seen[want] {
			t.Errorf("missing paper job %q", want)
		}
	}
}
