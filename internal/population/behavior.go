package population

import (
	"fmt"
	"math"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// Behavior is the ground-truth engagement model: the probability that a
// given user clicks a given ad creative. It encodes documented population-
// level engagement patterns; the delivery algorithm never reads it directly,
// only the click outcomes it generates (the engagement logs the platform's
// estimated-action-rate model is trained on).
//
// Pattern sources, all discussed in the paper:
//   - homophily on race and (weakly) gender: minority users respond more to
//     ads featuring people like them (§2.2, refs [16, 41, 53]);
//   - women engage more with images of children (§8: "historically, women
//     were more likely to engage with such ads");
//   - men aged 55+ engage disproportionately with images of young women
//     (§2.2's Musical.ly episode, ref [62]);
//   - engagement with a job ad tracks the probability of working in that
//     industry, i.e. its workforce composition (§6, following Ali et al.).
type Behavior struct {
	cfg BehaviorConfig
}

// BehaviorConfig sets the engagement-pattern strengths (log-odds units).
// AffinityScale multiplies every demographic affinity at once and is the
// knob the A2 ablation sweeps; 0 removes all content-demographic coupling.
// The six pattern weights take any finite value, 0 removing that pattern.
// The values after "default" are DefaultBehaviorConfig's; no zero field is
// replaced by them.
type BehaviorConfig struct {
	BaseCTR              float64 // baseline click probability in (0, 0.5), default 0.02
	AffinityScale        float64 // global multiplier, finite and ≥ 0, default 1
	RaceHomophily        float64 // default 0.9
	GenderAffinity       float64 // default 0.02
	AgeProximity         float64 // default 1.6 (penalty at max age distance)
	ChildToWomen         float64 // default 1.2
	YoungWomenToOlderMen float64 // default 2.2
	JobComposition       float64 // default 1.0
}

// DefaultBehaviorConfig returns the calibration used by the experiments.
func DefaultBehaviorConfig() BehaviorConfig {
	return BehaviorConfig{
		BaseCTR:              0.02,
		AffinityScale:        1,
		RaceHomophily:        0.9,
		GenderAffinity:       0.02,
		AgeProximity:         1.6,
		ChildToWomen:         1.2,
		YoungWomenToOlderMen: 2.2,
		JobComposition:       1.0,
	}
}

// NewBehavior validates the config and returns the model.
func NewBehavior(cfg BehaviorConfig) (*Behavior, error) {
	if !(cfg.BaseCTR > 0 && cfg.BaseCTR < 0.5) {
		return nil, fmt.Errorf("population: BaseCTR %v outside (0, 0.5)", cfg.BaseCTR)
	}
	if !(cfg.AffinityScale >= 0) {
		return nil, fmt.Errorf("population: AffinityScale %v is not ≥ 0", cfg.AffinityScale)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{{"AffinityScale", cfg.AffinityScale}, {"RaceHomophily", cfg.RaceHomophily}, {"GenderAffinity", cfg.GenderAffinity},
		{"AgeProximity", cfg.AgeProximity}, {"ChildToWomen", cfg.ChildToWomen},
		{"YoungWomenToOlderMen", cfg.YoungWomenToOlderMen}, {"JobComposition", cfg.JobComposition}} {
		if math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return nil, fmt.Errorf("population: %s %v is not finite", w.name, w.v)
		}
	}
	return &Behavior{cfg: cfg}, nil
}

// ClickProb returns P(user clicks | shown the creative). It reads the user
// through the columnar view and never allocates — it sits inside every
// auction of the delivery hot loop.
func (b *Behavior) ClickProb(u UserView, img image.Features) float64 {
	c := &b.cfg
	z := math.Log(c.BaseCTR / (1 - c.BaseCTR))
	if !img.HasPerson {
		return stats.Sigmoid(z)
	}
	s := c.AffinityScale
	gender := u.Gender()
	age := u.Age()

	// Race homophily: raceAxis > 0 is Black presentation; raceSign(u) is +1
	// for Black users, -1 for white. Aligned signs raise engagement.
	z += s * c.RaceHomophily * img.RaceAxis * raceSign(u.Race()) * 0.5

	// Weak gender homophily.
	z += s * c.GenderAffinity * img.GenderAxis * genderSign(gender) * 0.5

	// Age proximity: engagement decays with |user age - pictured age|.
	ageDist := math.Abs(float64(age)-img.AgeYears) / 60
	if ageDist > 1 {
		ageDist = 1
	}
	z -= s * c.AgeProximity * ageDist

	// Women (increasingly with age) engage with images of children. The
	// age gradient must outrun the age-proximity penalty so that older
	// women show the strongest child-image engagement (Figure 3C).
	if gender == demo.GenderFemale {
		z += s * c.ChildToWomen * childness(img) * (0.35 + float64(age)/70)
	}

	// Men 55+ engage with images of young women.
	if gender == demo.GenderMale && age >= 55 {
		z += s * c.YoungWomenToOlderMen * youngWomanness(img)
	}

	// Job ads: engagement tracks the advertised industry's workforce
	// composition for the user's demographic.
	if img.Job != "" {
		z += s * c.JobComposition * JobAffinity(img.Job, gender, u.Race())
	}
	return stats.Sigmoid(z)
}

func raceSign(r demo.Race) float64 {
	switch r {
	case demo.RaceBlack:
		return 1
	case demo.RaceWhite:
		return -1
	}
	return 0
}

func genderSign(g demo.Gender) float64 {
	switch g {
	case demo.GenderFemale:
		return 1
	case demo.GenderMale:
		return -1
	}
	return 0
}

// childness is 1 for an image of a young child, fading to 0 by age 16.
func childness(img image.Features) float64 {
	v := (16 - img.AgeYears) / 10
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// youngWomanness peaks for feminine-presenting images of apparent age ≈ 18
// and fades by the mid-30s.
func youngWomanness(img image.Features) float64 {
	if img.GenderAxis <= 0 {
		return 0
	}
	ageTerm := math.Exp(-math.Pow((img.AgeYears-18)/9, 2))
	return img.GenderAxis * ageTerm
}

// jobShare holds the approximate workforce composition of the §6 job
// categories: the fraction of workers who are female and the fraction who
// are Black. Values are stylized from U.S. labor statistics; only their
// ordering and rough magnitudes matter for reproducing Figure 7's base
// skews (lumber → white men, janitor → Black women, supermarket → women).
type jobShare struct {
	female float64
	black  float64
}

var jobShares = map[string]jobShare{
	"ai-engineer":       {female: 0.20, black: 0.08},
	"doctor":            {female: 0.40, black: 0.09},
	"janitor":           {female: 0.55, black: 0.45},
	"lawyer":            {female: 0.38, black: 0.09},
	"lumber":            {female: 0.05, black: 0.10},
	"nurse":             {female: 0.88, black: 0.25},
	"preschool-teacher": {female: 0.97, black: 0.18},
	"restaurant-server": {female: 0.70, black: 0.18},
	"secretary":         {female: 0.93, black: 0.17},
	"supermarket-clerk": {female: 0.65, black: 0.22},
	"taxi-driver":       {female: 0.15, black: 0.30},
}

// JobAffinity returns the log-odds adjustment for a user demographic
// engaging with an ad for the given job, derived from workforce shares
// (log share relative to an even split). Unknown jobs contribute 0.
func JobAffinity(job string, g demo.Gender, r demo.Race) float64 {
	sh, ok := jobShares[job]
	if !ok {
		return 0
	}
	var z float64
	switch g {
	case demo.GenderFemale:
		z += math.Log(sh.female / 0.5)
	case demo.GenderMale:
		z += math.Log((1 - sh.female) / 0.5)
	}
	// Black workers are ~12% of the U.S. workforce; normalize against that
	// base rate so the adjustment is relative over/under-representation.
	const blackBase = 0.12
	switch r {
	case demo.RaceBlack:
		z += math.Log(sh.black / blackBase)
	case demo.RaceWhite:
		z += math.Log((1 - sh.black) / (1 - blackBase))
	}
	return 0.5 * z
}
