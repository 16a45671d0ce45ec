// Package face implements the study's stand-in for the Deepface library
// (§5.4): machine classifiers that estimate the gender, race, and age
// implied by a face image. Two distinct consumers instantiate it:
//
//   - the audit pipeline, which uses it to label 50,000 GAN samples before
//     fitting latent directions; and
//   - the simulated platform, which uses an independently trained instance
//     as its content-understanding model (the perception feeding delivery
//     optimization).
//
// The classifiers are trained on a synthetic corpus whose images carry the
// presentation biases package image bakes into the distribution (feminine
// presentation correlates with smiling). The trained models therefore
// inherit those biases — a gender classifier that partially keys on smile —
// reproducing the paper's caveat that "this approach is subject to all
// biases that arise from the combination of biases in self-presentation,
// training data, latent space allocation, and classification biases of
// Deepface."
package face

import (
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// Classifier estimates demographics from image features.
type Classifier struct {
	gender *stats.LogitResult // P(presents female)
	race   *stats.LogitResult // P(presents Black) with white as distractor
	age    *stats.OLSResult   // apparent age in years
}

// TrainOptions configures classifier training.
type TrainOptions struct {
	CorpusSize int   // labelled training faces; default 5000
	Seed       int64 // corpus sampling seed
	// LabelNoise is the fraction of training labels flipped at random,
	// modelling annotation error in face-classification training sets.
	LabelNoise float64
}

// Train fits the three estimators on a freshly sampled labelled corpus.
func Train(opt TrainOptions) (*Classifier, error) {
	if opt.CorpusSize == 0 {
		opt.CorpusSize = 5000
	}
	if opt.CorpusSize < 100 {
		return nil, fmt.Errorf("face: corpus size %d too small", opt.CorpusSize)
	}
	if opt.LabelNoise < 0 || opt.LabelNoise > 0.4 {
		return nil, fmt.Errorf("face: label noise %v outside [0, 0.4]", opt.LabelNoise)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	n := opt.CorpusSize
	x := stats.NewMatrix(n, image.VectorDim)
	yGender := make([]float64, n)
	yRace := make([]float64, n)
	yAge := make([]float64, n)
	profiles := demo.AllProfiles()
	stock := image.DefaultStockOptions()
	for i := 0; i < n; i++ {
		p := profiles[rng.Intn(len(profiles))]
		f := image.FromProfile(p)
		f.GenderAxis += stock.PersonJitter * rng.NormFloat64()
		f.RaceAxis += stock.PersonJitter * rng.NormFloat64()
		f.AgeYears += stock.AgeJitterYears * rng.NormFloat64()
		for j := range f.Nuisance {
			f.Nuisance[j] = stock.NuisanceStdDev * rng.NormFloat64()
		}
		f.ApplyPresentationBias()
		copy(x.Row(i), f.Vector())
		if p.Gender == demo.GenderFemale {
			yGender[i] = 1
		}
		if p.Race == demo.RaceBlack {
			yRace[i] = 1
		}
		yAge[i] = f.AgeYears
		if opt.LabelNoise > 0 {
			if rng.Float64() < opt.LabelNoise {
				yGender[i] = 1 - yGender[i]
			}
			if rng.Float64() < opt.LabelNoise {
				yRace[i] = 1 - yRace[i]
			}
		}
	}

	names := image.FeatureNames()
	logitOpt := stats.LogitOptions{Ridge: 1.0}
	gender, err := stats.Logit(names, x, yGender, logitOpt)
	if err != nil {
		return nil, fmt.Errorf("face: training gender model: %w", err)
	}
	race, err := stats.Logit(names, x, yRace, logitOpt)
	if err != nil {
		return nil, fmt.Errorf("face: training race model: %w", err)
	}
	age, err := stats.OLS(names, x, yAge)
	if err != nil {
		return nil, fmt.Errorf("face: training age model: %w", err)
	}
	return &Classifier{gender: gender, race: race, age: age}, nil
}

// GenderScore returns P(the pictured person presents female).
func (c *Classifier) GenderScore(f image.Features) float64 {
	x := f.Array() // stays on the stack: the tuning scans score ~10⁴ images per face
	return c.gender.Predict(x[:])
}

// Gender returns the hard gender label and its score.
func (c *Classifier) Gender(f image.Features) (demo.Gender, float64) {
	s := c.GenderScore(f)
	if s >= 0.5 {
		return demo.GenderFemale, s
	}
	return demo.GenderMale, s
}

// RaceScore returns P(the pictured person presents Black), with white as
// the distractor class per the paper's per-race regression setup.
func (c *Classifier) RaceScore(f image.Features) float64 {
	x := f.Array()
	return c.race.Predict(x[:])
}

// Race returns the hard race label and its score.
func (c *Classifier) Race(f image.Features) (demo.Race, float64) {
	s := c.RaceScore(f)
	if s >= 0.5 {
		return demo.RaceBlack, s
	}
	return demo.RaceWhite, s
}

// AgeYears returns the estimated apparent age in years.
func (c *Classifier) AgeYears(f image.Features) float64 {
	x := f.Array()
	var row [1 + image.VectorDim]float64 // intercept column first, as stats.OLS lays it out
	row[0] = 1
	copy(row[1:], x[:])
	v, err := c.age.Predict(row[:])
	if err != nil {
		// The model and image vector are both fixed-dimension; a mismatch is
		// a programming error, not a data condition.
		panic(err)
	}
	return v
}

// Profile returns the full machine-estimated demographic profile.
func (c *Classifier) Profile(f image.Features) demo.Profile {
	g, _ := c.Gender(f)
	r, _ := c.Race(f)
	return demo.Profile{Gender: g, Race: r, Age: image.ImpliedAgeForYears(c.AgeYears(f))}
}

// SmileWeight exposes the gender model's learned coefficient on the smile
// nuisance axis — the inherited-bias diagnostic the ablation report prints.
func (c *Classifier) SmileWeight() float64 {
	// Coef[0] is the intercept; smile is nuisance index 0, i.e. vector
	// index 3, i.e. coefficient index 4.
	return c.gender.Coef[1+3+image.NuisanceSmile]
}
