package platform

import (
	"fmt"
	"slices"

	"github.com/adaudit/impliedidentity/internal/population"
)

// CustomAudience is a PII-matched user list (§2.1: "the advertiser can
// provide the platform with the list of personally identifiable
// information… thereby specifying precisely who is in the target audience").
// The platform only ever reports the matched size, never which users
// matched.
type CustomAudience struct {
	ID      string
	Name    string
	Size    int     // matched accounts
	members []int32 // population indexes; internal, never exposed via the API
	// sorted caches ascending(). members itself keeps upload order: that is
	// what the WAL and State() serialise.
	sorted []int32
}

// ascending returns the members in ascending order without duplicates,
// sorted by the first ad that targets the audience and kept for the rest.
// The caller holds p.mu for writing.
func (ca *CustomAudience) ascending() []int32 {
	if ca.sorted == nil {
		ca.sorted = slices.Clone(ca.members)
		slices.Sort(ca.sorted)
		ca.sorted = slices.Compact(ca.sorted)
	}
	return ca.sorted
}

// UploadRecord is one row of an audience upload: the advertiser-side PII,
// hashed client-side before transmission as real platforms require.
type UploadRecord struct {
	FirstName string
	LastName  string
	Address   string
	ZIP       string
}

// Hash returns the normalized PII hash for the row.
func (r UploadRecord) Hash() string {
	return population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
}

// CreateCustomAudience matches a list of hex PII hashes against the user
// base and registers the audience. Duplicate hashes are tolerated (matched
// once); hashes that are not 64 hex characters match nobody.
func (p *Platform) CreateCustomAudience(name string, piiHashes []string) (*CustomAudience, error) {
	if err := checkUpload(name, len(piiHashes)); err != nil {
		return nil, err
	}
	keys := make([]population.PIIKey, 0, len(piiHashes))
	for _, h := range piiHashes {
		if key, ok := population.DecodePIIKey(h); ok {
			keys = append(keys, key)
		}
	}
	return p.registerMatched(name, keys), nil
}

// CreateCustomAudienceFromKeys is CreateCustomAudience for an upload already
// decoded to raw keys, the form the API server scans a request body into.
func (p *Platform) CreateCustomAudienceFromKeys(name string, keys []population.PIIKey) (*CustomAudience, error) {
	if err := checkUpload(name, len(keys)); err != nil {
		return nil, err
	}
	return p.registerMatched(name, keys), nil
}

func checkUpload(name string, rows int) error {
	if name == "" {
		return fmt.Errorf("platform: custom audience needs a name")
	}
	if rows == 0 {
		return fmt.Errorf("platform: custom audience %q: empty upload", name)
	}
	return nil
}

// registerMatched matches the keys and registers the audience. The match
// runs before p.mu is taken: the population is immutable, so only the
// registration needs the account lock and readers are not held up for the
// length of an upload.
func (p *Platform) registerMatched(name string, keys []population.PIIKey) *CustomAudience {
	members := p.pop.MatchPII(keys)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.registerAudienceLocked(name, members)
}

// registerAudienceLocked gives a new audience the next ID, installs it and
// emits its creation, so that no way of building an audience can leave it
// out of the mutation log. The caller holds p.mu for writing.
func (p *Platform) registerAudienceLocked(name string, members []int32) *CustomAudience {
	ca := &CustomAudience{
		ID:      fmt.Sprintf("ca-%d", len(p.audiences)+1),
		Name:    name,
		Size:    len(members),
		members: members,
	}
	p.audiences[ca.ID] = ca
	p.emit(func() Mutation { return Mutation{Kind: MutAudienceCreated, Audience: audienceState(ca)} })
	return ca
}

// Audience returns a registered audience by ID. Audiences are immutable
// after creation, so the shared pointer is safe to read without the lock.
func (p *Platform) Audience(id string) (*CustomAudience, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.audienceLocked(id)
}

// audienceLocked looks up an audience; the caller holds p.mu.
func (p *Platform) audienceLocked(id string) (*CustomAudience, error) {
	ca, ok := p.audiences[id]
	if !ok {
		return nil, fmt.Errorf("platform: unknown custom audience %q", id)
	}
	return ca, nil
}

// resolveAudience computes the final targeted user set for an ad: the union
// of its Custom Audiences filtered by the attribute limits, ascending — the
// audience order feeds seeded RNG consumption downstream. The union is a
// merge of the audiences' ascending member lists, so one audience (the
// audit's case) costs a single filtered pass, and limits that remove nobody
// (the audit's and the fleet's case) return the union itself: an ad on one
// unfiltered audience holds that audience's own ascending list.
//
// Each distinct targeting is resolved once: p.resolved keeps the list under
// the audience IDs, sorted and without repeats — a union does not depend on
// the order its parts are named in — plus the limits, and every ad with that
// targeting — created or replayed — holds the same slice. Audiences are
// immutable and never removed, so an entry cannot go stale; Restore, which
// replaces them, drops the table. The caller holds p.mu for writing.
func (p *Platform) resolveAudience(t *Targeting) ([]int32, error) {
	ids := slices.Clone(t.CustomAudienceIDs)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	key := fmt.Sprintf("%q %d %d %d %d", ids, t.AgeMin, t.AgeMax, t.Genders, t.States)
	if out, ok := p.resolved[key]; ok {
		return out, nil
	}
	var union []int32
	for k, id := range ids {
		ca, err := p.audienceLocked(id)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			union = ca.ascending()
		} else {
			union = mergeAscending(union, ca.ascending())
		}
	}
	// Everyone before the first user a limit removes is kept; with no such
	// user the union is the answer and nothing is copied.
	removed := func(idx int32) bool { return !t.matchesUser(p.pop.View(int(idx))) }
	out := union
	if cut := slices.IndexFunc(union, removed); cut >= 0 {
		out = append(make([]int32, 0, len(union)-1), union[:cut]...)
		for _, idx := range union[cut+1:] {
			if !removed(idx) {
				out = append(out, idx)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("platform: targeting matches no users")
	}
	p.resolved[key] = out
	return out, nil
}

// mergeAscending returns the union of two ascending duplicate-free lists as
// a new ascending duplicate-free list.
func mergeAscending(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}
