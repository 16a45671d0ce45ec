package platform

import (
	"fmt"
	"math"
	"sort"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// CreateLookalikeAudience expands a seed Custom Audience to roughly size
// accounts that "look like" the seed — the construction behind lookalike
// and, post-settlement, Special Ad Audiences, which are built without
// explicit demographic features (§2.2; the paper's discussion of ref [58],
// "Algorithms that Don't See Color").
//
// The expansion model deliberately uses only non-demographic account
// features: the account's ZIP code (scored by how over-represented that ZIP
// is among the seed) and its activity level. No race, gender, or age enters
// the score. The E15 extension experiment shows the expansion reproduces
// the seed's racial makeup anyway, because residential segregation makes
// ZIP a proxy — the mechanism the reference paper documents.
func (p *Platform) CreateLookalikeAudience(name, seedID string, size int) (*CustomAudience, error) {
	if size <= 0 {
		return nil, fmt.Errorf("platform: lookalike size must be positive, got %d", size)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	seed, err := p.audienceLocked(seedID)
	if err != nil {
		return nil, err
	}
	inSeed := make(map[int]bool, len(seed.members))
	for _, idx := range seed.members {
		inSeed[int(idx)] = true
	}

	// Seed ZIP distribution vs the whole user base.
	seedZIP := map[string]float64{}
	for _, idx := range seed.members {
		seedZIP[p.pop.View(int(idx)).ZIP()]++
	}
	baseZIP := map[string]float64{}
	var seedActivity float64
	for i := 0; i < p.pop.Len(); i++ {
		baseZIP[p.pop.View(i).ZIP()]++
	}
	for _, idx := range seed.members {
		seedActivity += p.pop.View(int(idx)).Activity()
	}
	seedActivity /= float64(len(seed.members))
	seedN := float64(len(seed.members))
	baseN := float64(p.pop.Len())

	type cand struct {
		idx   int
		score float64
	}
	cands := make([]cand, 0, p.pop.Len())
	for i := 0; i < p.pop.Len(); i++ {
		if inSeed[i] {
			continue
		}
		u := p.pop.View(i)
		// Laplace-smoothed ZIP lift: log of how over-represented the
		// user's ZIP is among seed accounts.
		lift := math.Log(((seedZIP[u.ZIP()] + 0.5) / (seedN + 1)) / ((baseZIP[u.ZIP()] + 0.5) / (baseN + 1)))
		// Activity proximity, a weak secondary signal.
		act := -math.Abs(u.Activity()-seedActivity) / (seedActivity + 1)
		cands = append(cands, cand{idx: i, score: lift + 0.2*act})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("platform: no candidates outside the seed")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].idx < cands[j].idx // deterministic ties
	})
	if size > len(cands) {
		size = len(cands)
	}
	members := make([]int32, size)
	for i, c := range cands[:size] {
		members[i] = int32(c.idx)
	}
	return p.registerAudienceLocked(name, members), nil
}

// AudienceComposition reports the demographic makeup of an audience. This
// is a simulator-side oracle for the E15 analysis — the real platform never
// reveals audience demographics, which is exactly why ref [58] had to
// measure them by running ads against voter-list ground truth.
type AudienceComposition struct {
	Size       int
	FracBlack  float64
	FracFemale float64
	Frac45Plus float64
}

// CompositionOf computes the oracle composition of an audience.
func (p *Platform) CompositionOf(audienceID string) (AudienceComposition, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ca, err := p.audienceLocked(audienceID)
	if err != nil {
		return AudienceComposition{}, err
	}
	var out AudienceComposition
	out.Size = ca.Size
	if ca.Size == 0 {
		return out, nil
	}
	var black, female, older int
	for _, idx := range ca.members {
		u := p.pop.View(int(idx))
		if u.Race() == demo.RaceBlack {
			black++
		}
		if u.Gender() == demo.GenderFemale {
			female++
		}
		if u.Age() >= 45 {
			older++
		}
	}
	n := float64(ca.Size)
	out.FracBlack = float64(black) / n
	out.FracFemale = float64(female) / n
	out.Frac45Plus = float64(older) / n
	return out, nil
}
