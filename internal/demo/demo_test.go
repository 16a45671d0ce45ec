package demo

import (
	"testing"
	"testing/quick"
)

func TestGenderRoundTrip(t *testing.T) {
	for _, g := range []Gender{GenderUnknown, GenderMale, GenderFemale} {
		got, err := ParseGender(g.String())
		if err != nil {
			t.Fatalf("ParseGender(%q): %v", g.String(), err)
		}
		if got != g {
			t.Errorf("round trip %v -> %q -> %v", g, g.String(), got)
		}
	}
}

func TestParseGenderCodes(t *testing.T) {
	cases := map[string]Gender{"M": GenderMale, "f": GenderFemale, "U": GenderUnknown, "": GenderUnknown, " Male ": GenderMale}
	for in, want := range cases {
		got, err := ParseGender(in)
		if err != nil {
			t.Fatalf("ParseGender(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseGender(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseGender("x"); err == nil {
		t.Error("ParseGender(x): want error")
	}
}

func TestBucketForAgeMatchesBounds(t *testing.T) {
	for _, b := range AllAgeBuckets() {
		lo, hi := b.Bounds()
		for _, age := range []int{lo, (lo + hi) / 2, hi} {
			if got := BucketForAge(age); got != b {
				t.Errorf("BucketForAge(%d) = %v, want %v", age, got, b)
			}
		}
	}
}

func TestBucketForAgeProperty(t *testing.T) {
	// Property: buckets are monotone in age and cover [18, 120].
	f := func(raw uint8) bool {
		age := 18 + int(raw)%103
		b := BucketForAge(age)
		lo, hi := b.Bounds()
		if b == Age65Plus {
			return age >= lo
		}
		return age >= lo && age <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAgeBucketRoundTrip(t *testing.T) {
	for _, b := range AllAgeBuckets() {
		got, err := ParseAgeBucket(b.String())
		if err != nil || got != b {
			t.Errorf("round trip %v: got %v, %v", b, got, err)
		}
	}
	if _, err := ParseAgeBucket("12-17"); err == nil {
		t.Error("ParseAgeBucket(12-17): want error")
	}
}

func TestAgeBucketMidInsideBounds(t *testing.T) {
	for _, b := range AllAgeBuckets() {
		lo, hi := b.Bounds()
		mid := b.Mid()
		if mid < float64(lo) || mid > float64(hi) {
			t.Errorf("%v: mid %v outside [%d,%d]", b, mid, lo, hi)
		}
	}
}

func TestImpliedAgeYearsMonotone(t *testing.T) {
	ages := AllImpliedAges()
	for i := 1; i < len(ages); i++ {
		if ages[i].RepresentativeYears() <= ages[i-1].RepresentativeYears() {
			t.Errorf("representative years not monotone at %v", ages[i])
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, s := range []State{StateFL, StateNC, StateOther} {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, %v", s, got, err)
		}
	}
	if _, err := ParseState("CA"); err == nil {
		t.Error("ParseState(CA): want error — only FL/NC are study states")
	}
}

func TestAllProfilesBalanced(t *testing.T) {
	ps := AllProfiles()
	if len(ps) != 20 {
		t.Fatalf("AllProfiles: got %d, want 20 (5 ages × 2 genders × 2 races)", len(ps))
	}
	seen := map[Profile]bool{}
	counts := map[Race]int{}
	for _, p := range ps {
		if seen[p] {
			t.Errorf("duplicate profile %v", p)
		}
		seen[p] = true
		counts[p.Race]++
		if p.Gender == GenderUnknown || p.Race == RaceOther {
			t.Errorf("profile %v has unknown axis", p)
		}
	}
	if counts[RaceWhite] != counts[RaceBlack] {
		t.Errorf("race imbalance: %v", counts)
	}
}
