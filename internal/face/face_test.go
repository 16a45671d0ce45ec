package face

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

func trainTest(t *testing.T, seed int64) *Classifier {
	t.Helper()
	c, err := Train(TrainOptions{CorpusSize: 3000, Seed: seed, LabelNoise: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(TrainOptions{CorpusSize: 10}); err == nil {
		t.Error("tiny corpus: want error")
	}
	if _, err := Train(TrainOptions{CorpusSize: 500, LabelNoise: 0.9}); err == nil {
		t.Error("huge label noise: want error")
	}
}

func TestClassifierAccuracyOnCleanImages(t *testing.T) {
	c := trainTest(t, 1)
	for _, p := range demo.AllProfiles() {
		f := image.FromProfile(p)
		f.ApplyPresentationBias()
		got := c.Profile(f)
		if got.Gender != p.Gender {
			t.Errorf("%v: gender classified as %v", p, got.Gender)
		}
		if got.Race != p.Race {
			t.Errorf("%v: race classified as %v", p, got.Race)
		}
	}
}

func TestClassifierAccuracyOnStockPhotos(t *testing.T) {
	c := trainTest(t, 2)
	rng := rand.New(rand.NewSource(99))
	cat, err := image.NewStockCatalog(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	var genderRight, raceRight int
	for _, ph := range cat.Photos {
		got := c.Profile(ph.Features)
		if got.Gender == ph.Label.Gender {
			genderRight++
		}
		if got.Race == ph.Label.Race {
			raceRight++
		}
	}
	n := len(cat.Photos)
	if acc := float64(genderRight) / float64(n); acc < 0.9 {
		t.Errorf("gender accuracy %v on stock photos", acc)
	}
	if acc := float64(raceRight) / float64(n); acc < 0.9 {
		t.Errorf("race accuracy %v on stock photos", acc)
	}
}

func TestAgeEstimateTracksApparentAge(t *testing.T) {
	c := trainTest(t, 3)
	young := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedChild})
	old := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedElderly})
	ay, oy := c.AgeYears(young), c.AgeYears(old)
	if ay >= oy {
		t.Errorf("age estimates not ordered: child %v >= elderly %v", ay, oy)
	}
	if math.Abs(ay-young.AgeYears) > 10 {
		t.Errorf("child age estimate %v too far from %v", ay, young.AgeYears)
	}
	if math.Abs(oy-old.AgeYears) > 12 {
		t.Errorf("elderly age estimate %v too far from %v", oy, old.AgeYears)
	}
}

func TestGenderScoreMonotoneInAxis(t *testing.T) {
	c := trainTest(t, 4)
	base := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	prev := -1.0
	for g := -1.0; g <= 1.0; g += 0.25 {
		f := base
		f.GenderAxis = g
		s := c.GenderScore(f)
		if s < prev {
			t.Errorf("gender score not monotone at axis %v: %v < %v", g, s, prev)
		}
		prev = s
	}
}

func TestInheritedSmileBias(t *testing.T) {
	// The trained gender model must carry a positive weight on the smile
	// axis, inherited from the presentation-biased corpus (§5.4's caveat).
	c := trainTest(t, 5)
	if w := c.SmileWeight(); w <= 0 {
		t.Errorf("smile weight %v, want positive (inherited presentation bias)", w)
	}
	// Behavioural check: adding a smile to an androgynous face raises the
	// female score.
	f := image.Features{HasPerson: true, GenderAxis: 0, RaceAxis: -0.5, AgeYears: 30}
	without := c.GenderScore(f)
	f.Nuisance[image.NuisanceSmile] = 2
	with := c.GenderScore(f)
	if with <= without {
		t.Errorf("smile should raise female score: %v <= %v", with, without)
	}
}

func TestIndependentInstancesDiffer(t *testing.T) {
	// The audit's classifier and the platform's perception model are
	// independently trained; different seeds must give different weights.
	a := trainTest(t, 6)
	b := trainTest(t, 7)
	if a.SmileWeight() == b.SmileWeight() {
		t.Error("independently trained classifiers should not be identical")
	}
}

func TestDeterministicTraining(t *testing.T) {
	a := trainTest(t, 8)
	b := trainTest(t, 8)
	if a.SmileWeight() != b.SmileWeight() {
		t.Error("same-seed training should be deterministic")
	}
}

// TestScoresEqualPredictOnVectorWithoutAllocating pins the stack-array
// scoring to the models' own Predict over the heap Vector (the expression
// the three scores used to be), bit for bit, and to zero allocations.
func TestScoresEqualPredictOnVectorWithoutAllocating(t *testing.T) {
	c := trainTest(t, 5)
	rng := rand.New(rand.NewSource(6))
	var f image.Features
	for trial := 0; trial < 200; trial++ {
		f = image.Features{HasPerson: true, GenderAxis: rng.NormFloat64(), RaceAxis: rng.NormFloat64(), AgeYears: 80 * rng.Float64()}
		for i := range f.Nuisance {
			f.Nuisance[i] = rng.NormFloat64()
		}
		if got, want := c.GenderScore(f), c.gender.Predict(f.Vector()); got != want {
			t.Fatalf("GenderScore %v, Predict(Vector) %v", got, want)
		}
		if got, want := c.RaceScore(f), c.race.Predict(f.Vector()); got != want {
			t.Fatalf("RaceScore %v, Predict(Vector) %v", got, want)
		}
		want, err := c.age.Predict(append([]float64{1}, f.Vector()...))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.AgeYears(f); got != want {
			t.Fatalf("AgeYears %v, Predict(1, Vector...) %v", got, want)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += c.GenderScore(f) + c.RaceScore(f) + c.AgeYears(f)
	}); allocs != 0 {
		t.Errorf("scoring one image allocated %v objects, want 0", allocs)
	}
	_ = sink
}
