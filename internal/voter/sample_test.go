package voter

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/stats"
)

func TestPovertyStatsBlackHigherBeforeMatching(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 40000)
	rng := rand.New(rand.NewSource(10))
	sample := StratifiedSample(reg.Records, 0, rng)
	mw, mb := PovertyStats(reg, sample)
	if math.IsNaN(mw) || math.IsNaN(mb) {
		t.Fatal("NaN medians")
	}
	if mb <= mw {
		t.Errorf("median poverty: black %v <= white %v; expected the Appendix A gap", mb, mw)
	}
}

func TestMatchPovertyEqualizesDistributions(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 40000)
	rng := rand.New(rand.NewSource(11))
	sample := StratifiedSample(reg.Records, 0, rng)
	matched := MatchPoverty(reg, sample, 10, rng)
	if len(matched) == 0 {
		t.Fatal("empty matched sample")
	}
	if len(matched) >= len(sample) {
		t.Errorf("matching should shrink the sample: %d >= %d", len(matched), len(sample))
	}
	// Balance must be preserved.
	if err := VerifyBalance(matched); err != nil {
		t.Fatal(err)
	}
	// After matching, the white/black poverty means should be statistically
	// indistinguishable.
	var w, b []float64
	for i := range matched {
		r := &matched[i]
		p := reg.ZIPPoverty[r.ZIP]
		switch r.Race {
		case demo.RaceWhite:
			w = append(w, p)
		case demo.RaceBlack:
			b = append(b, p)
		}
	}
	res := stats.WelchTTest(w, b)
	if res.P < 0.01 {
		t.Errorf("post-matching poverty still differs: Δ=%v p=%v", res.DeltaM, res.P)
	}
	// Pre-matching, the difference should be clearly significant (sanity
	// check that matching actually did something).
	var w0, b0 []float64
	for i := range sample {
		r := &sample[i]
		p := reg.ZIPPoverty[r.ZIP]
		switch r.Race {
		case demo.RaceWhite:
			w0 = append(w0, p)
		case demo.RaceBlack:
			b0 = append(b0, p)
		}
	}
	pre := stats.WelchTTest(w0, b0)
	if pre.P > 0.01 {
		t.Errorf("pre-matching poverty not significantly different (p=%v); generator correlation too weak", pre.P)
	}
}

func TestMatchPovertyMinBins(t *testing.T) {
	reg := testRegistry(t, demo.StateNC, 10000)
	rng := rand.New(rand.NewSource(12))
	sample := StratifiedSample(reg.Records, 100, rng)
	// nBins below 2 is clamped, not an error.
	matched := MatchPoverty(reg, sample, 1, rng)
	if err := VerifyBalance(matched); err != nil {
		t.Fatal(err)
	}
}

// TestMatchPovertyEmptySample: an empty sample has no quantile edges to bin
// by; it yields an empty result and leaves the RNG where it was.
func TestMatchPovertyEmptySample(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 1000)
	rng := rand.New(rand.NewSource(13))
	if matched := MatchPoverty(reg, nil, 10, rng); len(matched) != 0 {
		t.Errorf("empty sample matched %d records", len(matched))
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(13)).Int63(); got != want {
		t.Error("matching an empty sample consumed draws")
	}
}

func TestPovertyOfUnknownZIPDefault(t *testing.T) {
	reg := &Registry{State: demo.StateFL, ZIPPoverty: map[string]float64{}}
	r := Record{ZIP: "99999"}
	if p := povertyOf(reg, &r); p != 0.12 {
		t.Errorf("default poverty = %v", p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median: want NaN")
	}
}
