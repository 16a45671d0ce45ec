package platform

import (
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// The estimated-action-rate model (§2.1). A logistic regression over user
// features, perceived creative features, and their pairwise interactions,
// trained on historical engagement logs. The interactions are what let
// optimization learn patterns like homophily — no such pattern is coded
// here; the capacity is generic and the weights come from data.

const (
	numUserFeatures  = 5 // age, age², female, black, older-male
	numImageFeatures = 6 // female, black, age, age², child, young-woman
)

// featureLayout fixes the index ranges of the eAR design vector.
type featureLayout struct {
	user   int // start of user block
	img    int // start of image block
	cross  int // start of user×image block (row-major user-major)
	ageGap int // |user age - perceived image age| / 80, a standard
	// age-match ranking feature; its weight is learned like any other
	hasPerson int
	jobs      int // start of job block: per job [main, ×female, ×black]
	jobNames  []string
	dim       int
}

func newFeatureLayout() featureLayout {
	l := featureLayout{jobNames: image.JobTypes()}
	l.user = 0
	l.img = l.user + numUserFeatures
	l.cross = l.img + numImageFeatures
	l.ageGap = l.cross + numUserFeatures*numImageFeatures
	l.hasPerson = l.ageGap + 1
	l.jobs = l.hasPerson + 1
	l.dim = l.jobs + 3*len(l.jobNames)
	return l
}

func (l *featureLayout) names() []string {
	userNames := [numUserFeatures]string{"u-age", "u-age2", "u-female", "u-black", "u-older-male"}
	imgNames := [numImageFeatures]string{"i-female", "i-black", "i-age", "i-age2", "i-child", "i-young-woman"}
	out := make([]string, 0, l.dim)
	out = append(out, userNames[:]...)
	out = append(out, imgNames[:]...)
	for _, u := range userNames {
		for _, i := range imgNames {
			out = append(out, u+"×"+i)
		}
	}
	out = append(out, "age-gap", "has-person")
	for _, j := range l.jobNames {
		out = append(out, "job-"+j, "job-"+j+"×u-female", "job-"+j+"×u-black")
	}
	return out
}

// userBasis fills dst (len numUserFeatures) with the user-side features.
func userBasis(u population.UserView, dst []float64) {
	age := u.Age()
	a := float64(age) / 80
	dst[0] = a
	dst[1] = a * a
	if u.Gender() == demo.GenderFemale {
		dst[2] = 1
	} else {
		dst[2] = 0
	}
	if u.Race() == demo.RaceBlack {
		dst[3] = 1
	} else {
		dst[3] = 0
	}
	dst[4] = 0
	if u.Gender() == demo.GenderMale && age > 55 {
		dst[4] = float64(age-55) / 25
	}
}

// imageBasis fills dst (len numImageFeatures) from a perceived creative.
func imageBasis(pc *perceivedCreative, dst []float64) {
	if !pc.HasPerson {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	a := pc.AgeYears / 80
	dst[0] = pc.Female
	dst[1] = pc.Black
	dst[2] = a
	dst[3] = a * a
	dst[4] = pc.Child
	dst[5] = pc.YoungWoman
}

// featurize writes the full design vector for a (user, creative) pair.
func (l *featureLayout) featurize(u population.UserView, pc *perceivedCreative, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	ub := dst[l.user : l.user+numUserFeatures]
	ib := dst[l.img : l.img+numImageFeatures]
	userBasis(u, ub)
	imageBasis(pc, ib)
	k := l.cross
	for _, uv := range ub {
		for _, iv := range ib {
			dst[k] = uv * iv
			k++
		}
	}
	if pc.HasPerson {
		dst[l.hasPerson] = 1
		dst[l.ageGap] = ageGap(u.Age(), pc.AgeYears)
	}
	if pc.Job != "" {
		for j, name := range l.jobNames {
			if name == pc.Job {
				base := l.jobs + 3*j
				dst[base] = 1
				dst[base+1] = ub[2] // ×female
				dst[base+2] = ub[3] // ×black
				break
			}
		}
	}
}

// ageGap is the scaled absolute difference between a user's age and the
// perceived age of the person pictured.
func ageGap(userAge int, imgAge float64) float64 {
	g := (float64(userAge) - imgAge) / 80
	if g < 0 {
		return -g
	}
	return g
}

// earModel is the trained estimator plus the folding machinery that makes
// per-(ad, user) evaluation O(numUserFeatures).
type earModel struct {
	layout featureLayout
	fit    *stats.LogitResult
}

// foldedEAR is an eAR model specialized to one creative: because the design
// is linear in (user block) once the image is fixed, the image and
// interaction weights fold into per-user-feature coefficients.
type foldedEAR struct {
	c0        float64
	cu        [numUserFeatures]float64
	gapW      float64 // weight on the age-gap feature
	imgAge    float64
	hasPerson bool
}

// fold specializes the model to a creative.
func (m *earModel) fold(pc *perceivedCreative) foldedEAR {
	w := m.fit.Coef // w[0] is the intercept; feature k is w[k+1]
	l := &m.layout
	var f foldedEAR
	f.c0 = w[0]
	if pc.HasPerson {
		f.hasPerson = true
		f.imgAge = pc.AgeYears
		f.gapW = w[1+l.ageGap]
	}
	var ib [numImageFeatures]float64
	imageBasis(pc, ib[:])
	for j, iv := range ib {
		f.c0 += w[1+l.img+j] * iv
	}
	if pc.HasPerson {
		f.c0 += w[1+l.hasPerson]
	}
	for k := 0; k < numUserFeatures; k++ {
		c := w[1+l.user+k]
		for j, iv := range ib {
			c += w[1+l.cross+k*numImageFeatures+j] * iv
		}
		f.cu[k] = c
	}
	if pc.Job != "" {
		for j, name := range l.jobNames {
			if name == pc.Job {
				base := 1 + l.jobs + 3*j
				f.c0 += w[base]
				f.cu[2] += w[base+1] // ×female
				f.cu[3] += w[base+2] // ×black
				break
			}
		}
	}
	return f
}

// rate returns the estimated action rate for a user under the folded model.
func (f *foldedEAR) rate(u population.UserView) float64 {
	var ub [numUserFeatures]float64
	userBasis(u, ub[:])
	z := f.c0
	for k, v := range ub {
		z += f.cu[k] * v
	}
	if f.hasPerson {
		z += f.gapW * ageGap(u.Age(), f.imgAge)
	}
	return stats.Sigmoid(z)
}

// TrainingConfig controls engagement-log generation and eAR fitting.
type TrainingConfig struct {
	LogRows int   // engagement log size, at least 1000; Retrain takes 0 as the platform's
	Seed    int64 // log sampling seed
}

// trainEAR generates historical engagement logs — random users shown random
// historical creatives, with clicks drawn from the ground-truth behaviour
// model — and fits the logistic eAR model on them. This is the only place
// the platform touches the behaviour model, and only through sampled
// outcomes.
func trainEAR(cfg TrainingConfig, pop *population.Population, behave *population.Behavior, vision visionModel) (*earModel, error) {
	rows, err := trainLogRows(cfg, pop, behave, vision)
	if err != nil {
		return nil, err
	}
	layout := newFeatureLayout()
	// Mild ridge: enough to stabilise the interaction block on small logs
	// without flattening the learned affinities.
	fit, err := stats.Logit(layout.names(), rows.x, rows.y, stats.LogitOptions{Ridge: 3.0, MaxIter: 60})
	if err != nil {
		return nil, fmt.Errorf("platform: training eAR model: %w", err)
	}
	return &earModel{layout: layout, fit: fit}, nil
}

// fillEngagementLog populates a design matrix and response vector with
// simulated historical engagement: random users shown random creatives
// (60% plain people images, 30% job ads with a face, 10% no-person), with
// clicks drawn from the ground-truth behaviour model.
func fillEngagementLog(rng *rand.Rand, layout featureLayout, pop *population.Population, behave *population.Behavior, vision visionModel, x *stats.Matrix, y []float64) {
	jobs := image.JobTypes()
	profiles := demo.AllProfiles()
	for i := 0; i < x.Rows; i++ {
		u := pop.View(rng.Intn(pop.Len()))
		var img image.Features
		switch r := rng.Float64(); {
		case r < 0.10:
			img = image.Features{}
		default:
			p := profiles[rng.Intn(len(profiles))]
			img = image.StockFeatures(p, rng)
			img.ApplyPresentationBias()
			if r < 0.40 {
				img.Job = jobs[rng.Intn(len(jobs))]
			}
		}
		pc := perceiveWith(vision, img)
		layout.featurize(u, &pc, x.Row(i))
		if rng.Float64() < behave.ClickProb(u, img) {
			y[i] = 1
		}
	}
}

// perceiveWith mirrors Platform.perceive for use before the Platform exists.
func perceiveWith(vision visionModel, img image.Features) perceivedCreative {
	if !img.HasPerson {
		return perceivedCreative{Job: img.Job}
	}
	pc := perceivedCreative{HasPerson: true, Job: img.Job}
	pc.Female = vision.GenderScore(img)
	pc.Black = vision.RaceScore(img)
	pc.AgeYears = vision.AgeYears(img)
	pc.Child = conceptChild(pc.AgeYears)
	pc.YoungWoman = pc.Female * conceptYoungAdult(pc.AgeYears)
	return pc
}
