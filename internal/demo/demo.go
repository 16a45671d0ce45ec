// Package demo defines the shared demographic vocabulary used throughout the
// reproduction: the gender and race categories carried by voter records and
// reported by the simulated platform, the age buckets Facebook uses in its
// marketing-tool breakdowns, and the coarser "implied" age groups the paper
// assigns to people pictured in ad images (child, teen, adult, middle-aged,
// elderly).
//
// The paper (§4.2) is explicit that these are the categories available in the
// underlying data sources — self-reported voter registration fields and the
// platform's reporting API — not claims about identity. We inherit the same
// limitation: Gender is {Male, Female, Unknown} and Race is restricted to the
// two groups the study measures ({White, Black}, with Other for everyone
// else in the synthetic population).
package demo

import (
	"fmt"
	"strings"
)

// Gender is a self-reported gender as it appears in FL/NC voter files and in
// the platform's delivery breakdowns.
type Gender uint8

// Gender values. GenderUnknown covers voters who did not report a gender and
// platform users reported under "other".
const (
	GenderUnknown Gender = iota
	GenderMale
	GenderFemale
)

// String returns the lowercase name used in reports and wire formats.
func (g Gender) String() string {
	switch g {
	case GenderMale:
		return "male"
	case GenderFemale:
		return "female"
	default:
		return "unknown"
	}
}

// ParseGender converts a string (case-insensitive; accepts the single-letter
// codes used by voter extracts) into a Gender.
func ParseGender(s string) (Gender, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "m", "male":
		return GenderMale, nil
	case "f", "female":
		return GenderFemale, nil
	case "u", "unknown", "other", "":
		return GenderUnknown, nil
	}
	return GenderUnknown, fmt.Errorf("demo: unknown gender %q", s)
}

// Race is a self-reported race as it appears in voter files. The study
// measures delivery along a White/Black axis (§3.3); all other census
// categories collapse into RaceOther for the purposes of the audit.
type Race uint8

// Race values.
const (
	RaceOther Race = iota
	RaceWhite
	RaceBlack
)

// String returns the lowercase name used in reports and wire formats.
func (r Race) String() string {
	switch r {
	case RaceWhite:
		return "white"
	case RaceBlack:
		return "black"
	default:
		return "other"
	}
}

// AgeBucket is one of the six age ranges Facebook uses when reporting
// delivery breakdowns (§3.2, footnote 3). The paper's target audiences are
// stratified within these buckets (Table 1).
type AgeBucket uint8

// Age buckets in ascending order.
const (
	Age18to24 AgeBucket = iota
	Age25to34
	Age35to44
	Age45to54
	Age55to64
	Age65Plus
	NumAgeBuckets = 6
)

// ageBucketBounds holds the [lo, hi] inclusive year bounds per bucket. The
// 65+ bucket is capped at 95 for sampling purposes.
var ageBucketBounds = [NumAgeBuckets][2]int{
	{18, 24}, {25, 34}, {35, 44}, {45, 54}, {55, 64}, {65, 95},
}

// String returns the label used in reports ("18-24" … "65+").
func (b AgeBucket) String() string {
	switch b {
	case Age18to24:
		return "18-24"
	case Age25to34:
		return "25-34"
	case Age35to44:
		return "35-44"
	case Age45to54:
		return "45-54"
	case Age55to64:
		return "55-64"
	case Age65Plus:
		return "65+"
	}
	return fmt.Sprintf("AgeBucket(%d)", uint8(b))
}

// Bounds returns the inclusive [lo, hi] ages covered by the bucket.
func (b AgeBucket) Bounds() (lo, hi int) {
	if int(b) >= NumAgeBuckets {
		return 0, 0
	}
	return ageBucketBounds[b][0], ageBucketBounds[b][1]
}

// Mid returns the midpoint age of the bucket, used when estimating the
// average age of an actual audience from a bucketed breakdown (Figure 3B/3D).
// For 65+ the paper-style convention of 70 is used rather than the sampling
// cap, matching how a mean is typically imputed from an open-ended bucket.
func (b AgeBucket) Mid() float64 {
	if b == Age65Plus {
		return 70
	}
	lo, hi := b.Bounds()
	return float64(lo+hi) / 2
}

// BucketForAge maps an age in years to its reporting bucket. Ages below 18
// are reported as 18-24: the platform does not serve the audit's ads to
// minors (targeting is voter-derived), so this case only arises from
// adversarial inputs.
func BucketForAge(age int) AgeBucket {
	switch {
	case age < 25:
		return Age18to24
	case age < 35:
		return Age25to34
	case age < 45:
		return Age35to44
	case age < 55:
		return Age45to54
	case age < 65:
		return Age55to64
	default:
		return Age65Plus
	}
}

// AllAgeBuckets lists the buckets in ascending order.
func AllAgeBuckets() []AgeBucket {
	return []AgeBucket{Age18to24, Age25to34, Age35to44, Age45to54, Age55to64, Age65Plus}
}

// ParseAgeBucket converts a report label ("18-24", "65+") into an AgeBucket.
func ParseAgeBucket(s string) (AgeBucket, error) {
	for _, b := range AllAgeBuckets() {
		if b.String() == strings.TrimSpace(s) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("demo: unknown age bucket %q", s)
}

// ImpliedAge is the coarse age group implied by the person pictured in an ad
// image (§3.1): child, teenager, adult, middle-aged, elderly. This is an
// attribute of the *image*, distinct from the AgeBucket of a platform user.
type ImpliedAge uint8

// Implied age groups in ascending order.
const (
	ImpliedChild ImpliedAge = iota
	ImpliedTeen
	ImpliedAdult
	ImpliedMiddleAged
	ImpliedElderly
	NumImpliedAges = 5
)

// String returns the label used in figures and regression tables.
func (a ImpliedAge) String() string {
	switch a {
	case ImpliedChild:
		return "child"
	case ImpliedTeen:
		return "teen"
	case ImpliedAdult:
		return "adult"
	case ImpliedMiddleAged:
		return "middle-aged"
	case ImpliedElderly:
		return "elderly"
	}
	return fmt.Sprintf("ImpliedAge(%d)", uint8(a))
}

// RepresentativeYears returns a nominal age in years at the centre of the
// implied group, used when synthesizing image features along the age axis.
func (a ImpliedAge) RepresentativeYears() float64 {
	switch a {
	case ImpliedChild:
		return 8
	case ImpliedTeen:
		return 16
	case ImpliedAdult:
		return 30
	case ImpliedMiddleAged:
		return 50
	default:
		return 72
	}
}

// AllImpliedAges lists the implied age groups in ascending order.
func AllImpliedAges() []ImpliedAge {
	return []ImpliedAge{ImpliedChild, ImpliedTeen, ImpliedAdult, ImpliedMiddleAged, ImpliedElderly}
}

// State identifies one of the two voter-record states the methodology uses as
// physically distant race-measurement locations (§3.3), plus an Other bucket
// for impressions delivered while a user travels.
type State uint8

// States. The paper uses Florida and North Carolina because both publish
// voter extracts with self-reported race and are non-adjacent.
const (
	StateOther State = iota
	StateFL
	StateNC
)

// String returns the two-letter postal code, or "other".
func (s State) String() string {
	switch s {
	case StateFL:
		return "FL"
	case StateNC:
		return "NC"
	default:
		return "other"
	}
}

// ParseState converts a postal code into a State.
func ParseState(v string) (State, error) {
	switch strings.ToUpper(strings.TrimSpace(v)) {
	case "FL":
		return StateFL, nil
	case "NC":
		return StateNC, nil
	case "OTHER", "":
		return StateOther, nil
	}
	return StateOther, fmt.Errorf("demo: unknown state %q", v)
}

// Profile bundles the three demographic axes the study manipulates and
// measures. It describes either a person pictured in an ad image (with
// ImpliedAge granularity) or, via User-side types, a platform user.
type Profile struct {
	Gender Gender
	Race   Race
	Age    ImpliedAge
}

// String formats the profile as e.g. "black female adult".
func (p Profile) String() string {
	return p.Race.String() + " " + p.Gender.String() + " " + p.Age.String()
}

// AllProfiles enumerates the 2 genders × 2 races × 5 implied ages = 20
// combinations used to balance the stock-image catalog (§3.1).
func AllProfiles() []Profile {
	out := make([]Profile, 0, 20)
	for _, r := range []Race{RaceWhite, RaceBlack} {
		for _, g := range []Gender{GenderMale, GenderFemale} {
			for _, a := range AllImpliedAges() {
				out = append(out, Profile{Gender: g, Race: r, Age: a})
			}
		}
	}
	return out
}
