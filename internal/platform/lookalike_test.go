package platform

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

func TestCreateLookalikeAudienceErrors(t *testing.T) {
	p, f := newTestPlatform(t, 910)
	if _, err := p.CreateLookalikeAudience("x", "ca-404", 10); err == nil {
		t.Error("unknown seed: want error")
	}
	recs := f.registry.Records[:200]
	hashes := make([]string, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	seed, err := p.CreateCustomAudience("seed", hashes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateLookalikeAudience("x", seed.ID, 0); err == nil {
		t.Error("zero size: want error")
	}
	// Oversized requests are truncated to the candidate pool, not an error.
	big, err := p.CreateLookalikeAudience("big", seed.ID, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if big.Size == 0 || big.Size >= f.pop.Len() {
		t.Errorf("truncated size %d vs population %d", big.Size, f.pop.Len())
	}
}

func TestLookalikeExcludesSeedAndEnriches(t *testing.T) {
	p, f := newTestPlatform(t, 911)
	rng := rand.New(rand.NewSource(5))
	hashes := raceHashes(f.registry.Records, demo.RaceBlack, 1200, rng)
	seed, err := p.CreateCustomAudience("seed", hashes)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := p.CreateLookalikeAudience("exp", seed.ID, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// No overlap with the seed.
	inSeed := map[int32]bool{}
	for _, idx := range seed.members {
		inSeed[idx] = true
	}
	for _, idx := range exp.members {
		if inSeed[idx] {
			t.Fatal("expansion contains a seed member")
		}
	}
	// The expansion is enriched for the seed's (unobserved) race relative
	// to the population base rate.
	comp, err := p.CompositionOf(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.CompositionOf(seed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if base.FracBlack < 0.99 {
		t.Fatalf("seed composition %v, setup broken", base.FracBlack)
	}
	var popBlack int
	for i := 0; i < f.pop.Len(); i++ {
		if f.pop.View(i).Race() == demo.RaceBlack {
			popBlack++
		}
	}
	popRate := float64(popBlack) / float64(f.pop.Len())
	if comp.FracBlack < popRate+0.08 {
		t.Errorf("expansion %.3f Black vs population %.3f; want clear enrichment", comp.FracBlack, popRate)
	}
}

func TestCompositionOfErrors(t *testing.T) {
	p, _ := newTestPlatform(t, 912)
	if _, err := p.CompositionOf("ca-404"); err == nil {
		t.Error("unknown audience: want error")
	}
}

func TestObjectiveOptimizationTerm(t *testing.T) {
	p, f := newTestPlatform(t, 913)
	u := f.pop.View(0)
	img := p.perceive(imageOfAdult())
	folded := p.ear.fold(&img)
	awareness := &Ad{Objective: ObjectiveAwareness, folded: folded}
	traffic := &Ad{Objective: ObjectiveTraffic, folded: folded}
	conversions := &Ad{Objective: ObjectiveConversions, folded: folded}
	if got := p.optimizationTerm(awareness, u); got != 1 {
		t.Errorf("awareness term %v, want 1", got)
	}
	tr := p.optimizationTerm(traffic, u)
	if tr <= 0 || tr >= 1 {
		t.Errorf("traffic term %v, want a probability", tr)
	}
	cv := p.optimizationTerm(conversions, u)
	if cv <= 0 {
		t.Errorf("conversions term %v", cv)
	}
	// The conversions transform is monotone in eAR: a user with higher
	// traffic term must keep a higher conversions term.
	hi, found := population.UserView{}, false
	for i := 0; i < f.pop.Len(); i++ {
		cand := f.pop.View(i)
		if p.optimizationTerm(traffic, cand) > tr {
			hi, found = cand, true
			break
		}
	}
	if found && p.optimizationTerm(conversions, hi) <= cv {
		t.Error("conversions transform not monotone in eAR")
	}
}

// TestLookalikeAudienceIsDurable: a lookalike audience is emitted to the
// mutation hook like an uploaded one, so replaying the log into a fresh
// platform brings back the audience, the ad that targets it (whose replay
// fails without it) and the audience-ID cursor.
func TestLookalikeAudienceIsDurable(t *testing.T) {
	p1, f := newTestPlatform(t, 912)
	var muts []Mutation
	p1.SetMutationHook(func(m Mutation) { muts = append(muts, m) })
	seedID := uploadBalancedAudience(t, p1, f, 10, 41)
	look, err := p1.CreateLookalikeAudience("expansion", seedID, 300)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := p1.CreateCampaign("special-ad-audience", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := p1.CreateAd(cmp.ID, Creative{Headline: "h"}, Targeting{CustomAudienceIDs: []string{look.ID}}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 4 {
		t.Fatalf("captured %d mutations, want 4 (seed, lookalike, campaign, ad)", len(muts))
	}

	p2, _ := newTestPlatform(t, 912)
	for i := range muts {
		if err := p2.ApplyMutation(&muts[i]); err != nil {
			t.Fatalf("mutation %d (%s): %v", i, muts[i].Kind, err)
		}
	}
	if got, want := stateJSON(t, p2), stateJSON(t, p1); got != want {
		t.Fatalf("replayed state diverged:\n got %.200s…\nwant %.200s…", got, want)
	}
	a1, a2 := p1.ads[ad.ID].audience, p2.ads[ad.ID].audience
	if len(a1) != look.Size || !slices.Equal(a1, a2) {
		t.Fatalf("resolved ad audience: %d users live, %d replayed, lookalike size %d", len(a1), len(a2), look.Size)
	}
	// The next audience must not reuse the lookalike's ID.
	next, err := p2.CreateLookalikeAudience("again", seedID, 50)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == look.ID || next.ID == seedID {
		t.Fatalf("audience ID %s reused after replay", next.ID)
	}
}
