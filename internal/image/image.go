// Package image models ad creative images in feature space. The study never
// needs raw pixels: every consumer of an image — the Deepface-style
// classifier (§5.4), the platform's content-understanding model that feeds
// delivery optimization (§2.1), and the human annotators who labelled the
// stock photos (§3.1) — reads a finite set of perceptual attributes. We make
// that attribute vector the image representation itself: three "person" axes
// (presented gender, presented race, apparent age) plus a bank of nuisance
// axes (smile, clothing, lighting, background, composition, pose) that real
// photographs vary on and that synthetically controlled images hold fixed.
//
// The key property the paper exploits is exactly reproducible here: stock
// photos of the same demographic differ substantially in nuisance axes,
// while StyleGAN-generated variants of one "person" differ only along the
// person axes (§5.4-§5.5).
package image

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// NumNuisance is the number of nuisance axes carried by every image.
const NumNuisance = 8

// Names of the nuisance axes, for diagnostics and ablation reports.
var NuisanceNames = [NumNuisance]string{
	"smile", "clothing-brightness", "lighting-warmth", "background-complexity",
	"head-pose", "expression-intensity", "image-sharpness", "color-saturation",
}

// Indexes into the nuisance bank that other packages reference by meaning.
const (
	NuisanceSmile = 0
)

// Features is one ad image. GenderAxis runs from -1 (masculine presentation)
// to +1 (feminine presentation); RaceAxis runs from -1 (white presentation)
// to +1 (Black presentation). AgeYears is the apparent age of the person
// pictured. HasPerson is false for background-only images (the §6 job
// backgrounds before a face is composited on).
type Features struct {
	HasPerson  bool
	GenderAxis float64
	RaceAxis   float64
	AgeYears   float64
	Nuisance   [NumNuisance]float64
	// Job is the advertised job type for §6 composites ("lumber",
	// "janitor", …); empty for plain headshots.
	Job string
}

// FromProfile returns the noiseless feature-space location of a demographic
// profile: axis saturation ±0.9 and the group's representative age.
func FromProfile(p demo.Profile) Features {
	f := Features{HasPerson: true, AgeYears: p.Age.RepresentativeYears()}
	if p.Gender == demo.GenderFemale {
		f.GenderAxis = 0.9
	} else {
		f.GenderAxis = -0.9
	}
	if p.Race == demo.RaceBlack {
		f.RaceAxis = 0.9
	} else {
		f.RaceAxis = -0.9
	}
	return f
}

// ImpliedProfile reads the demographic profile a human annotator would
// assign to the image (§3.1 labels stock photos manually). It is the
// noise-free inverse of FromProfile and intentionally has no error model —
// classifier bias lives in package face, not here.
func (f Features) ImpliedProfile() demo.Profile {
	p := demo.Profile{}
	if f.GenderAxis >= 0 {
		p.Gender = demo.GenderFemale
	} else {
		p.Gender = demo.GenderMale
	}
	if f.RaceAxis >= 0 {
		p.Race = demo.RaceBlack
	} else {
		p.Race = demo.RaceWhite
	}
	p.Age = ImpliedAgeForYears(f.AgeYears)
	return p
}

// ImpliedAgeForYears maps an apparent age in years to the implied age group.
func ImpliedAgeForYears(years float64) demo.ImpliedAge {
	switch {
	case years < 13:
		return demo.ImpliedChild
	case years < 20:
		return demo.ImpliedTeen
	case years < 40:
		return demo.ImpliedAdult
	case years < 62:
		return demo.ImpliedMiddleAged
	default:
		return demo.ImpliedElderly
	}
}

// Vector flattens the image into the fixed-order float vector consumed by
// classifiers: [gender, race, age/50, nuisance...]. Age is scaled so all
// entries have comparable magnitude.
func (f Features) Vector() []float64 {
	v := f.Array()
	return v[:]
}

// Array is Vector as a fixed-size value, for callers that score an image
// without a heap allocation.
func (f Features) Array() [VectorDim]float64 {
	var out [VectorDim]float64
	out[0] = f.GenderAxis
	out[1] = f.RaceAxis
	out[2] = f.AgeYears / 50
	copy(out[3:], f.Nuisance[:])
	return out
}

// VectorDim is the length of Vector().
const VectorDim = 3 + NumNuisance

// FeatureNames labels the entries of Vector().
func FeatureNames() []string {
	out := []string{"gender-axis", "race-axis", "age-scaled"}
	return append(out, NuisanceNames[:]...)
}

// NuisanceDistance returns the Euclidean distance between two images in
// nuisance space only — the quantity that is large between stock photos and
// near zero between StyleGAN variants of one person.
func NuisanceDistance(a, b Features) float64 {
	var s float64
	for i := range a.Nuisance {
		d := a.Nuisance[i] - b.Nuisance[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// genderSmileCoupling reproduces the presentation bias the paper calls out
// (§5.4): images presenting as more feminine also tend to show a more
// pronounced smile, both in training corpora and therefore in anything a
// model learns from them. Stock photos exhibit it; the GAN's latent space
// inherits it.
const genderSmileCoupling = 0.35

// ApplyPresentationBias couples the smile nuisance axis to the gender axis.
// It is called by both the stock sampler and the GAN synthesizer so the bias
// is a property of the image *distribution*, not of any single generator.
func (f *Features) ApplyPresentationBias() {
	f.Nuisance[NuisanceSmile] += genderSmileCoupling * f.GenderAxis
}

// Stock photo sampling ---------------------------------------------------

// Stock-photo variation, matching the variance contrast the paper describes.
const (
	// stockNuisanceStdDev is the standard deviation of each nuisance axis
	// across stock photos — the photo-to-photo variation in composition,
	// clothing, lighting, etc. that §5.4 sets out to remove.
	stockNuisanceStdDev float64 = 0.8
	// stockPersonJitter is demographic-presentation noise: two photos of
	// different people from the same group don't sit at the exact same spot
	// on the person axes.
	stockPersonJitter float64 = 0.15
	// stockAgeJitterYears spreads apparent age within the implied group.
	stockAgeJitterYears float64 = 3
)

// StockFeatures draws one stock photo of a person in profile p: the group's
// presentation with person-to-person jitter and fresh nuisance. The
// presentation bias is left to the caller, which may first adjust the axes.
func StockFeatures(p demo.Profile, rng *rand.Rand) Features {
	f := FromProfile(p)
	f.GenderAxis += stockPersonJitter * rng.NormFloat64()
	f.RaceAxis += stockPersonJitter * rng.NormFloat64()
	f.AgeYears += stockAgeJitterYears * rng.NormFloat64()
	for i := range f.Nuisance {
		f.Nuisance[i] = stockNuisanceStdDev * rng.NormFloat64()
	}
	return f
}

// StockPhoto is one licensed stock image with its manual annotation.
type StockPhoto struct {
	ID       string
	Label    demo.Profile // the manual annotation (§3.1)
	Features Features
}

// StockCatalog is the balanced 100-image set: five distinct people for each
// of the 20 demographic combinations (§3.1).
type StockCatalog struct {
	Photos []StockPhoto
}

// NewStockCatalog samples a balanced catalog: perPerson photos for each of
// the 20 profiles. The paper uses perPerson = 5 (100 images total).
func NewStockCatalog(perPerson int, rng *rand.Rand) (*StockCatalog, error) {
	if perPerson <= 0 {
		return nil, fmt.Errorf("image: perPerson must be positive, got %d", perPerson)
	}
	cat := &StockCatalog{}
	for _, p := range demo.AllProfiles() {
		for k := 0; k < perPerson; k++ {
			f := StockFeatures(p, rng)
			clampAxes(&f, p)
			f.ApplyPresentationBias()
			cat.Photos = append(cat.Photos, StockPhoto{
				ID:       fmt.Sprintf("stock-%s-%d", compactProfile(p), k+1),
				Label:    p,
				Features: f,
			})
		}
	}
	return cat, nil
}

// clampAxes keeps the jittered presentation on the labelled side of each
// axis and the apparent age inside the labelled group, so the manual
// annotation remains correct (annotators labelled what they saw).
func clampAxes(f *Features, p demo.Profile) {
	if p.Gender == demo.GenderFemale && f.GenderAxis < 0.3 {
		f.GenderAxis = 0.3
	} else if p.Gender == demo.GenderMale && f.GenderAxis > -0.3 {
		f.GenderAxis = -0.3
	}
	if p.Race == demo.RaceBlack && f.RaceAxis < 0.3 {
		f.RaceAxis = 0.3
	} else if p.Race == demo.RaceWhite && f.RaceAxis > -0.3 {
		f.RaceAxis = -0.3
	}
	if ImpliedAgeForYears(f.AgeYears) != p.Age {
		f.AgeYears = p.Age.RepresentativeYears()
	}
}

func compactProfile(p demo.Profile) string {
	return fmt.Sprintf("%c%c-%s", p.Race.String()[0], p.Gender.String()[0], p.Age)
}

// Job-background compositing (§6) -----------------------------------------

// JobTypes lists the 11 job categories from Ali et al. that §6 re-advertises
// with composited faces.
func JobTypes() []string {
	return []string{
		"ai-engineer", "doctor", "janitor", "lawyer", "lumber", "nurse",
		"preschool-teacher", "restaurant-server", "secretary",
		"supermarket-clerk", "taxi-driver",
	}
}

// CompositeOnJobBackground superimposes a face image onto a job-specific
// stock background (§6: "We super-impose on top of these images the faces
// generated using StyleGAN 2"). The person axes are preserved; the
// background contributes its own nuisance signature and tags the image with
// the job type the delivery model will read.
func CompositeOnJobBackground(face Features, job string, rng *rand.Rand) (Features, error) {
	if !face.HasPerson {
		return Features{}, fmt.Errorf("image: composite requires a face image")
	}
	known := false
	for _, j := range JobTypes() {
		if j == job {
			known = true
			break
		}
	}
	if !known {
		return Features{}, fmt.Errorf("image: unknown job type %q", job)
	}
	out := face
	out.Job = job
	// The background dominates composition/lighting nuisance axes.
	for i := 2; i < NumNuisance; i++ {
		out.Nuisance[i] = 0.5 * rng.NormFloat64()
	}
	return out, nil
}
