package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// oracleResolveAudience is resolveAudience as it stood before the merge:
// a map union, the targeting filter, then a sort.
func oracleResolveAudience(p *Platform, t *Targeting) ([]int, error) {
	inUnion := map[int]bool{}
	for _, id := range t.CustomAudienceIDs {
		ca, err := p.audienceLocked(id)
		if err != nil {
			return nil, err
		}
		for _, idx := range ca.members {
			inUnion[idx] = true
		}
	}
	var out []int
	for idx := range inUnion {
		if t.matchesUser(p.pop.View(idx)) {
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("platform: targeting matches no users")
	}
	sort.Ints(out)
	return out, nil
}

// installAudience registers an audience with the given members, in the
// given (arbitrary) order, bypassing PII matching.
func installAudience(p *Platform, members []int) string {
	ca := &CustomAudience{ID: fmt.Sprintf("ca-%d", len(p.audiences)+1), Size: len(members), members: members}
	p.audiences[ca.ID] = ca
	return ca.ID
}

// TestResolveAudienceMatchesMapAndSortOracle: over randomised overlapping
// audiences whose members arrive in score order (as a lookalike's do) or
// upload order, one to four IDs per ad (repeats included), and targeting
// limits that drop some or all rows, the merge returns exactly the oracle's
// ascending unique list, or its error.
func TestResolveAudienceMatchesMapAndSortOracle(t *testing.T) {
	p, f := newTestPlatform(t, 913)
	rng := rand.New(rand.NewSource(14))
	var ids []string
	for k := 0; k < 8; k++ {
		// Draw from a window of the population so that audiences overlap.
		lo := rng.Intn(f.pop.Len() / 2)
		members := rng.Perm(f.pop.Len() / 4)[:1+rng.Intn(400)]
		for i := range members {
			members[i] += lo
		}
		ids = append(ids, installAudience(p, members))
	}
	limits := []Targeting{
		{},
		{AgeMin: 30, AgeMax: 50},
		{Genders: []demo.Gender{demo.GenderFemale}},
		{States: []demo.State{demo.StateNC}, AgeMin: 45},
		{AgeMin: 200}, // matches no users
	}
	var dropped, refused int
	for trial := 0; trial < 300; trial++ {
		tg := limits[rng.Intn(len(limits))]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			tg.CustomAudienceIDs = append(tg.CustomAudienceIDs, ids[rng.Intn(len(ids))])
		}
		want, wantErr := oracleResolveAudience(p, &tg)
		got, gotErr := p.resolveAudience(&tg)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d %+v: error %v, oracle %v", trial, tg, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d %+v: %d users, oracle %d", trial, tg, len(got), len(want))
		}
		if gotErr != nil {
			refused++
		} else if all, _ := oracleResolveAudience(p, &Targeting{CustomAudienceIDs: tg.CustomAudienceIDs}); len(got) < len(all) {
			dropped++
		}
	}
	if dropped == 0 || refused == 0 {
		t.Fatalf("trials with rows dropped: %d, refused: %d; the test must cover both", dropped, refused)
	}
	if _, err := p.resolveAudience(&Targeting{CustomAudienceIDs: []string{ids[0], "ca-404"}}); err == nil {
		t.Error("unknown audience: want error")
	}
	// Upload order is what State() serialises; resolving must not disturb it.
	ca := p.audiences[ids[0]]
	if slices.IsSorted(ca.members) {
		t.Error("members were reordered in place (or the fixture drew a sorted audience)")
	}
}
