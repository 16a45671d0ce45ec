package core

import (
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/gan"
	"github.com/adaudit/impliedidentity/internal/image"
)

// StockSpecs builds the §5.2 ad set: one ad per stock photo, balanced over
// the 20 demographic combinations (perPerson photos each; the paper used 5,
// i.e. 100 images).
func StockSpecs(perPerson int, seed int64) ([]AdSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	cat, err := image.NewStockCatalog(perPerson, rng)
	if err != nil {
		return nil, err
	}
	specs := make([]AdSpec, len(cat.Photos))
	for i, ph := range cat.Photos {
		specs[i] = AdSpec{Key: ph.ID, Profile: ph.Label, Image: ph.Features}
	}
	return specs, nil
}

// SyntheticPipeline bundles the §5.4 artifacts: the generative network, the
// audit's classifier, the discovered latent directions, and the recipe for
// the faces discovery sampled. It holds no sample: Sources.Face(i)
// regenerates the few source people the ad sets are edited from.
type SyntheticPipeline struct {
	Net        *gan.Network
	Classifier *face.Classifier
	Directions gan.DirectionSet
	Sources    gan.Sources
}

// NewSyntheticPipeline trains the classifier, samples faces, and fits the
// latent directions (the paper samples 50,000; tests use fewer). It refuses
// fewer than gan.MinDiscoverySamples before drawing anything.
func NewSyntheticPipeline(samples int, seed int64) (*SyntheticPipeline, error) {
	if samples < gan.MinDiscoverySamples {
		return nil, fmt.Errorf("core: DiscoverySamples %d below the %d direction discovery needs", samples, gan.MinDiscoverySamples)
	}
	net, err := gan.New(gan.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	clf, err := face.Train(face.TrainOptions{CorpusSize: 4000, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	ds, sources, err := gan.DiscoverDirections(net, clf, samples, seed+2, gan.SGDOptions{Seed: seed + 3})
	if err != nil {
		return nil, err
	}
	return &SyntheticPipeline{Net: net, Classifier: clf, Directions: ds, Sources: sources}, nil
}

// SyntheticSpecs builds the §5.5 ad set: sources × 20 variants of the same
// synthetic person (the paper used 5 sources, 100 images).
func (sp *SyntheticPipeline) SyntheticSpecs(sources int) ([]AdSpec, error) {
	if sources <= 0 || sources > sp.Sources.Len() {
		return nil, fmt.Errorf("core: %d sources requested, %d samples available", sources, sp.Sources.Len())
	}
	var specs []AdSpec
	for s := 0; s < sources; s++ {
		source, err := sp.Sources.Face(s)
		if err != nil {
			return nil, err
		}
		variants, err := gan.VariantGrid(sp.Net, sp.Classifier, sp.Directions, source)
		if err != nil {
			return nil, fmt.Errorf("core: source %d: %w", s, err)
		}
		for _, v := range variants {
			specs = append(specs, AdSpec{
				Key:     fmt.Sprintf("syn-%d-%s-%s-%s", s+1, v.Target.Race, v.Target.Gender, v.Target.Age),
				Profile: v.Target,
				Image:   v.Image,
			})
		}
	}
	return specs, nil
}

// EmploymentSpecs builds the §6 ad set: every job type × the four adult
// identity configurations (male/female × white/Black), each a synthetic
// adult face composited onto the job background. 11 jobs × 4 = 44 specs;
// with the two audience copies this is the 88-ad Campaign 4.
func (sp *SyntheticPipeline) EmploymentSpecs(seed int64) ([]AdSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	source, err := sp.Sources.Face(0)
	if err != nil {
		return nil, err
	}
	faces := map[demo.Profile]image.Features{}
	for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
		for _, r := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
			p := demo.Profile{Gender: g, Race: r, Age: demo.ImpliedAdult}
			_, img, err := gan.TuneToProfile(sp.Net, sp.Classifier, sp.Directions, source.Activations, p)
			if err != nil {
				return nil, fmt.Errorf("core: tuning face for %v: %w", p, err)
			}
			faces[p] = img
		}
	}
	var specs []AdSpec
	for _, job := range image.JobTypes() {
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for _, r := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				p := demo.Profile{Gender: g, Race: r, Age: demo.ImpliedAdult}
				composite, err := image.CompositeOnJobBackground(faces[p], job, rng)
				if err != nil {
					return nil, err
				}
				specs = append(specs, AdSpec{
					Key:     fmt.Sprintf("job-%s-%s-%s", job, r, g),
					Profile: p,
					Image:   composite,
				})
			}
		}
	}
	return specs, nil
}
