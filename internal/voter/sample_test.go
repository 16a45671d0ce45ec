package voter

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// testIndex indexes a default generator's first n voters under a zero
// digest: the samplers never read it.
func testIndex(t *testing.T, state demo.State, n int) *Index {
	t.Helper()
	cfg := DefaultGeneratorConfig(state, 42)
	cfg.NumVoters = n
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := g.NewIndex()
	var d Draw
	var digest [32]byte
	for g.Draw(&d) {
		ix.Add(&d, &digest)
	}
	return ix
}

// TestIndexEntriesAreRegistryRecords: entry i of an index carries record
// i's cell and its registry's ZIP poverty. Generated ZIP codes collide, and
// an entry's poverty is then the one the registry's map holds for the code.
func TestIndexEntriesAreRegistryRecords(t *testing.T) {
	for _, state := range []demo.State{demo.StateFL, demo.StateNC} {
		reg := testRegistry(t, state, 20000)
		ix := testIndex(t, state, 20000)
		if ix.State != state || len(ix.Entries) != len(reg.Records) {
			t.Fatalf("%v: index of %d %v entries, registry of %d", state, len(ix.Entries), ix.State, len(reg.Records))
		}
		for i := range ix.Entries {
			e, r := &ix.Entries[i], &reg.Records[i]
			if e.Cell() != r.Cell() || int(e.Age) != r.Age() || ix.Poverty(e) != reg.ZIPPoverty[r.ZIP] {
				t.Fatalf("%v voter %d: entry %+v (poverty %v), record %+v (poverty %v)",
					state, i, e, ix.Poverty(e), r, reg.ZIPPoverty[r.ZIP])
			}
		}
	}
}

func TestPovertyStatsBlackHigherBeforeMatching(t *testing.T) {
	ix := testIndex(t, demo.StateFL, 40000)
	rng := rand.New(rand.NewSource(10))
	sample := StratifiedSample(ix.Entries, 0, rng)
	mw, mb := PovertyStats(sample, ix.Poverty)
	if math.IsNaN(mw) || math.IsNaN(mb) {
		t.Fatal("NaN medians")
	}
	if mb <= mw {
		t.Errorf("median poverty: black %v <= white %v; expected the Appendix A gap", mb, mw)
	}
}

func TestMatchPovertyEqualizesDistributions(t *testing.T) {
	ix := testIndex(t, demo.StateFL, 40000)
	rng := rand.New(rand.NewSource(11))
	sample := StratifiedSample(ix.Entries, 0, rng)
	matched := MatchPoverty(sample, ix.Poverty, rng)
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
		e := &matched[i]
		p := ix.Poverty(e)
		switch e.Race {
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
		e := &sample[i]
		p := ix.Poverty(e)
		switch e.Race {
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

// TestMatchPovertyEmptySample: an empty sample has no quantile edges to bin
// by; it yields an empty result and leaves the RNG where it was.
func TestMatchPovertyEmptySample(t *testing.T) {
	ix := testIndex(t, demo.StateFL, 1000)
	rng := rand.New(rand.NewSource(13))
	if matched := MatchPoverty(nil, ix.Poverty, rng); len(matched) != 0 {
		t.Errorf("empty sample matched %d records", len(matched))
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(13)).Int63(); got != want {
		t.Error("matching an empty sample consumed draws")
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
