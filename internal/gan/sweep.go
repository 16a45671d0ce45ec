package gan

import (
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/image"
)

// DirectionSet bundles the three latent directions the study manipulates.
type DirectionSet struct {
	Gender Direction // toward female presentation
	Race   Direction // toward Black presentation (white distractor)
	Age    Direction // toward older apparent age
}

// Sources is the recipe for the faces a discovery run sampled: the network,
// the sampling seed and the sample count. Discovery keeps none of its
// samples; the few faces the audit edits into ads (§5.5 uses five) are
// regenerated from here.
type Sources struct {
	net  *Network
	seed int64
	n    int
}

// Len returns the number of faces discovery sampled.
func (s Sources) Len() int { return s.n }

// Face regenerates sample i, bit for bit the face SampleBatch over the same
// seed puts at index i. It replays the latent draws of samples 0..i —
// NormFloat64 consumes a varying number of raw draws, so the stream cannot be
// skipped into — and maps only the last.
func (s Sources) Face(i int) (*Face, error) {
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("gan: source face %d of %d", i, s.n)
	}
	rng := rand.New(rand.NewSource(s.seed))
	z := make([]float64, s.net.LatentDim())
	for k := 0; k <= i; k++ {
		drawLatent(z, rng)
	}
	return s.net.faceOf(z)
}

// DiscoverDirections runs the §5.4 pipeline: sample nSamples random faces
// from the latent stream of seed, label each with the classifier (the
// Deepface stand-in), then fit one logistic regression per binary attribute
// and one linear regression for age, all on the flattened activation
// vectors. The returned directions inherit whatever biases the classifier
// has — by construction, exactly as in the paper.
//
// The activations live in one nSamples × ActivationDim matrix that dies with
// the call: each latent is drawn into one reused buffer and mapped straight
// into its row, and its image is labelled and dropped.
func DiscoverDirections(net *Network, clf *face.Classifier, nSamples int, seed int64, opt SGDOptions) (DirectionSet, Sources, error) {
	if nSamples < 50 {
		return DirectionSet{}, Sources{}, fmt.Errorf("gan: %d samples too few for direction discovery", nSamples)
	}
	dim := net.ActivationDim()
	matrix := make([]float64, nSamples*dim)
	acts := make([][]float64, nSamples)
	gLabels := make([]float64, nSamples)
	rLabels := make([]float64, nSamples)
	ages := make([]float64, nSamples)
	rng := rand.New(rand.NewSource(seed))
	z := make([]float64, net.LatentDim())
	for i := range acts {
		acts[i] = matrix[i*dim : (i+1)*dim : (i+1)*dim]
		drawLatent(z, rng)
		net.mappingInto(acts[i], z)
		img, err := net.Synthesize(acts[i])
		if err != nil {
			return DirectionSet{}, Sources{}, err
		}
		if g, _ := clf.Gender(img); g == demo.GenderFemale {
			gLabels[i] = 1
		}
		if r, _ := clf.Race(img); r == demo.RaceBlack {
			rLabels[i] = 1
		}
		ages[i] = clf.AgeYears(img)
	}
	wg, wr, wa, err := fitDirections(acts, gLabels, rLabels, ages, opt)
	if err != nil {
		return DirectionSet{}, Sources{}, err
	}
	var ds DirectionSet
	if ds.Gender, err = normalizedDirection("female", wg); err != nil {
		return DirectionSet{}, Sources{}, fmt.Errorf("gan: gender direction: %w", err)
	}
	if ds.Race, err = normalizedDirection("black", wr); err != nil {
		return DirectionSet{}, Sources{}, fmt.Errorf("gan: race direction: %w", err)
	}
	if ds.Age, err = normalizedDirection("age", wa); err != nil {
		return DirectionSet{}, Sources{}, fmt.Errorf("gan: age direction: %w", err)
	}
	return ds, Sources{net: net, seed: seed, n: nSamples}, nil
}

// tune walks the activations along dir to the alpha whose synthesized image
// has the smallest errOf (the distance between a classifier read-out and its
// target), scanning a fixed grid then refining once. Candidates are walked
// into buf, which must hold len(acts) values; only the winner is
// materialised.
func tune(net *Network, acts []float64, dir Direction, errOf func(image.Features) float64, buf []float64) ([]float64, error) {
	bestErr := 1e18
	var bestAlpha float64
	scan := func(center, halfWidth float64, steps int) error {
		for k := 0; k <= steps; k++ {
			alpha := center - halfWidth + 2*halfWidth*float64(k)/float64(steps)
			walkInto(buf, acts, dir, alpha)
			img, err := net.Synthesize(buf)
			if err != nil {
				return err
			}
			if e := errOf(img); e < bestErr {
				bestErr, bestAlpha = e, alpha
			}
		}
		return nil
	}
	if err := scan(0, 8, 64); err != nil {
		return nil, err
	}
	if err := scan(bestAlpha, 0.25, 20); err != nil {
		return nil, err
	}
	return Walk(acts, dir, bestAlpha), nil
}

// TuneToProfile edits a face's activations until the classifier assigns the
// target implied profile, holding everything else as constant as the
// near-orthogonal directions allow (§4.2: "we construct these images such
// that a machine learning library classifies their gender or race according
// to our hints"). Two coordinate passes absorb the small cross-talk between
// directions.
func TuneToProfile(net *Network, clf *face.Classifier, ds DirectionSet, acts []float64, target demo.Profile) ([]float64, image.Features, error) {
	// Target near-saturated classifier scores: stock photos of each group
	// score ≈ 0.98 / 0.02, and the tuned variants must imply demographics
	// as strongly as the stock images they are compared against (§5.5).
	genderTarget := 0.03
	if target.Gender == demo.GenderFemale {
		genderTarget = 0.97
	}
	raceTarget := 0.03
	if target.Race == demo.RaceBlack {
		raceTarget = 0.97
	}
	ageTarget := target.Age.RepresentativeYears()
	steps := [...]struct {
		dir   Direction
		errOf func(image.Features) float64
	}{
		{ds.Race, func(f image.Features) float64 { return abs(clf.RaceScore(f) - raceTarget) }},
		{ds.Gender, func(f image.Features) float64 { return abs(clf.GenderScore(f) - genderTarget) }},
		{ds.Age, func(f image.Features) float64 { return abs(clf.AgeYears(f) - ageTarget) }},
	}
	cur := acts
	buf := make([]float64, len(acts))
	var err error
	for pass := 0; pass < 2; pass++ {
		for _, s := range steps {
			if cur, err = tune(net, cur, s.dir, s.errOf, buf); err != nil {
				return nil, image.Features{}, err
			}
		}
	}
	img, err := net.Synthesize(cur)
	if err != nil {
		return nil, image.Features{}, err
	}
	return cur, img, nil
}

// Variant is one tuned image of a source person.
type Variant struct {
	Target      demo.Profile
	Activations []float64
	Image       image.Features
}

// VariantGrid generates the §5.5 image set for one source face: the 20
// demographic combinations (2 genders × 2 races × 5 implied ages) of the
// same "person".
func VariantGrid(net *Network, clf *face.Classifier, ds DirectionSet, source *Face) ([]Variant, error) {
	var out []Variant
	for _, p := range demo.AllProfiles() {
		acts, img, err := TuneToProfile(net, clf, ds, source.Activations, p)
		if err != nil {
			return nil, fmt.Errorf("gan: tuning to %v: %w", p, err)
		}
		out = append(out, Variant{Target: p, Activations: acts, Image: img})
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
