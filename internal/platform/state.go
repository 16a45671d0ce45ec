package platform

import (
	"fmt"
	"slices"
	"sort"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// This file is the platform's serialization boundary: the durable-state
// subsystem (internal/store) persists the account through the exported
// State/Restore/ApplyMutation surface and the mutation hook, never by
// reaching into private fields. Two properties shape the design:
//
//   - Events carry RESULTS, not commands — and not derivations. Ad review
//     consumes the review RNG and RunDay consumes a delivery RNG, so
//     replaying the *call* would diverge from what the platform acked. Every
//     mutation therefore embeds the post-mutation object state a die decided
//     (the created ad with its review outcome, the delivered day with its
//     complete AdStats), making replay deterministic and idempotent: applying
//     a mutation twice, or applying one already reflected in a snapshot,
//     converges to the same state. What no die decided is derived again: an
//     ad's targeted-user list is a pure function of its Targeting, its
//     audiences' members and the population, so the ad record carries the
//     Targeting and replay resolves it through the path CreateAd uses.
//
//   - The world is rebuilt, the account is restored. Population, behaviour
//     model, vision model, and eAR model are deterministic functions of the
//     configuration seed and are NOT serialized; custom-audience membership
//     is stored as population indexes (the only durable form of an upload:
//     the hashes are not kept), which are only valid against the same world.
//     Recovery must run against a platform built from the same seed;
//     internal/store verifies the population size as a cheap fingerprint. The
//     retraining buffer is deliberately non-durable: losing it costs nothing
//     the audit methodology observes. The review RNG's cursor is durable, as
//     a count of draws: a shard that restarted with the stream at its start
//     while its peers were k draws in reviewed the next ad differently.

// StateVersion tags the serialized account layout. Readers must reject
// versions they do not understand rather than guess. Version 1 embedded every
// ad's targeted-user list; version 2 does not, and a version-1 reader handed a
// version-2 ad would install it targeting nobody, hence the bump. This build
// reads both through one decoder: version 1's "audience" array is an unknown
// field, skipped, and the list is resolved from the targeting either way.
const (
	StateVersion    = 2
	minStateVersion = 1
)

// Mutation kinds, one per durable platform state change.
const (
	MutAudienceCreated = "audience_created"
	MutCampaignCreated = "campaign_created"
	MutAdCreated       = "ad_created"
	MutAdAppealed      = "ad_appealed"
	MutDayDelivered    = "day_delivered"
)

// AudienceState is the serializable form of a CustomAudience, including the
// matched member indexes the API never exposes (they are account state, not
// advertiser-visible data).
type AudienceState struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Size    int     `json:"size"`
	Members []int32 `json:"members"`
}

// AdState is the serializable form of an Ad. Perceived-creative scores, the
// folded eAR coefficients and the targeted-user list are re-derived on restore
// — from the creative and the (deterministically retrained) models, and from
// the targeting and the audiences it names — so only inputs are stored.
type AdState struct {
	ID               string    `json:"id"`
	CampaignID       string    `json:"campaign_id"`
	Objective        Objective `json:"objective"`
	Creative         Creative  `json:"creative"`
	Targeting        Targeting `json:"targeting"`
	DailyBudgetCents int       `json:"daily_budget_cents"`
	Status           AdStatus  `json:"status"`
}

// BreakdownCell is one insights breakdown cell in serializable form (struct
// map keys do not survive JSON).
type BreakdownCell struct {
	Age    demo.AgeBucket `json:"age"`
	Gender demo.Gender    `json:"gender"`
	Region demo.State     `json:"region"`
	N      int            `json:"n"`
}

// RaceCell is one race-oracle count.
type RaceCell struct {
	Race demo.Race `json:"race"`
	N    int       `json:"n"`
}

// AdStatsState is the serializable form of an AdStats.
type AdStatsState struct {
	AdID        string          `json:"ad_id"`
	Impressions int             `json:"impressions"`
	Reach       int             `json:"reach"`
	Clicks      int             `json:"clicks"`
	SpendCents  float64         `json:"spend_cents"`
	Cells       []BreakdownCell `json:"cells"`
	Hourly      []int           `json:"hourly"`
	RaceCells   []RaceCell      `json:"race_cells"`
}

// AppealState records the outcome of an ad appeal.
type AppealState struct {
	AdID   string   `json:"ad_id"`
	Status AdStatus `json:"status"`
}

// DeliveryState records one committed delivery day: which ads completed and
// their frozen insights.
type DeliveryState struct {
	Seed int64 `json:"seed"`
	// Workers is the effective delivery worker count the day ran with.
	// Replay applies the recorded stats rather than re-running the day, so
	// the field is informational, but it lets an auditor confirm which
	// engine configuration produced a recorded day.
	Workers int `json:"workers,omitempty"`
	// Shard/Shards identify which slice of a coordinated multi-process day
	// this backend ran (see delivery_session.go). Zero for in-process days.
	Shard     int            `json:"shard,omitempty"`
	Shards    int            `json:"shards,omitempty"`
	Completed []string       `json:"completed"`
	Stats     []AdStatsState `json:"stats"`
}

// sortDeliveryState puts a day record into its canonical order (sorted ad
// IDs), so identical days serialize to identical bytes.
func sortDeliveryState(del *DeliveryState) {
	sort.Strings(del.Completed)
	sort.Slice(del.Stats, func(i, j int) bool { return del.Stats[i].AdID < del.Stats[j].AdID })
}

// Mutation is one durable platform state change, emitted through the
// mutation hook after the change is applied in memory. Exactly one of the
// payload pointers is set, selected by Kind. NextID is the ID allocator
// cursor after the mutation, so replay restores it without parsing IDs;
// ReviewDraws is the review RNG's cursor after it, carried by the two kinds
// that draw (ad_created, ad_appealed). A record written before the field
// existed decodes to 0 and moves nothing.
type Mutation struct {
	Kind        string         `json:"kind"`
	NextID      int            `json:"next_id"`
	ReviewDraws int            `json:"review_draws,omitempty"`
	Audience    *AudienceState `json:"audience,omitempty"`
	Campaign    *Campaign      `json:"campaign,omitempty"`
	Ad          *AdState       `json:"ad,omitempty"`
	Appeal      *AppealState   `json:"appeal,omitempty"`
	Delivery    *DeliveryState `json:"delivery,omitempty"`
}

// MutationHook receives every committed mutation. It is invoked synchronously
// while the platform's write lock is held, so hook invocation order is
// exactly state-application order; implementations must therefore be fast
// (enqueue, don't fsync) and must not call back into the platform.
type MutationHook func(Mutation)

// SetMutationHook installs the hook (nil disables emission). Install it
// before serving traffic; mutations applied earlier are not re-emitted.
func (p *Platform) SetMutationHook(hook MutationHook) {
	p.mu.Lock()
	p.hook = hook
	p.mu.Unlock()
}

// emit delivers the mutation build returns to the hook. With no hook
// installed build is not called, so a platform nobody persists pays for no
// payload. The caller holds p.mu (write).
func (p *Platform) emit(build func() Mutation) {
	if p.hook == nil {
		return
	}
	m := build()
	m.NextID = p.nextID
	if m.Kind == MutAdCreated || m.Kind == MutAdAppealed {
		m.ReviewDraws = p.reviewDraws
	}
	p.hook(m)
}

// NumUsers reports the size of the user population, the cheap world
// fingerprint snapshots carry to catch recovery against a mismatched seed.
func (p *Platform) NumUsers() int {
	return p.pop.Len()
}

// State captures the full durable account state as a deep copy with
// deterministic ordering (sorted by object ID), so identical accounts
// serialize to identical bytes.
func (p *Platform) State() *State {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := &State{Version: StateVersion, NextID: p.nextID, ReviewDraws: p.reviewDraws}
	for _, ca := range p.audiences {
		st.Audiences = append(st.Audiences, *audienceState(ca))
	}
	for _, c := range p.campaigns {
		st.Campaigns = append(st.Campaigns, *c)
	}
	for _, ad := range p.ads {
		st.Ads = append(st.Ads, *adState(ad))
	}
	for _, s := range p.stats {
		st.Stats = append(st.Stats, *adStatsState(s))
	}
	sort.Slice(st.Audiences, func(i, j int) bool { return st.Audiences[i].ID < st.Audiences[j].ID })
	sort.Slice(st.Campaigns, func(i, j int) bool { return st.Campaigns[i].ID < st.Campaigns[j].ID })
	sort.Slice(st.Ads, func(i, j int) bool { return st.Ads[i].ID < st.Ads[j].ID })
	sort.Slice(st.Stats, func(i, j int) bool { return st.Stats[i].AdID < st.Stats[j].AdID })
	return st
}

// State is the serializable account: everything a restart must bring back.
// ReviewDraws is absent from states written before it existed; such a state
// restores the review stream at its start, as every state then did.
type State struct {
	Version     int             `json:"version"`
	NextID      int             `json:"next_id"`
	ReviewDraws int             `json:"review_draws,omitempty"`
	Audiences   []AudienceState `json:"audiences"`
	Campaigns   []Campaign      `json:"campaigns"`
	Ads         []AdState       `json:"ads"`
	Stats       []AdStatsState  `json:"stats"`
}

// Restore replaces the account state wholesale. Call it on a freshly built
// platform (same world seed) before serving traffic; the mutation hook is
// not invoked for restored state.
func (p *Platform) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("platform: nil state")
	}
	if st.Version < minStateVersion || st.Version > StateVersion {
		return fmt.Errorf("platform: state version %d, this build reads %d to %d", st.Version, minStateVersion, StateVersion)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.audiences = make(map[string]*CustomAudience, len(st.Audiences))
	p.resolved = map[string][]int32{} // resolved against the audiences being replaced
	p.campaigns = make(map[string]*Campaign, len(st.Campaigns))
	p.ads = make(map[string]*Ad, len(st.Ads))
	p.stats = make(map[string]*AdStats, len(st.Stats))
	p.nextID = st.NextID
	p.seekReview(st.ReviewDraws)
	for i := range st.Audiences {
		if err := p.applyAudienceLocked(&st.Audiences[i]); err != nil {
			return err
		}
	}
	for i := range st.Campaigns {
		c := st.Campaigns[i]
		p.campaigns[c.ID] = &c
	}
	for i := range st.Ads {
		if err := p.applyAdLocked(&st.Ads[i]); err != nil {
			return err
		}
	}
	for i := range st.Stats {
		p.applyStatsLocked(&st.Stats[i])
	}
	return nil
}

// ApplyMutation applies one replayed mutation. Application is idempotent
// (objects are keyed by ID and overwritten), which lets recovery replay a
// WAL tail that overlaps the snapshot it starts from.
func (p *Platform) ApplyMutation(m *Mutation) error {
	if m == nil {
		return fmt.Errorf("platform: nil mutation")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.NextID > p.nextID {
		p.nextID = m.NextID
	}
	p.seekReview(m.ReviewDraws)
	switch m.Kind {
	case MutAudienceCreated:
		if m.Audience == nil {
			return fmt.Errorf("platform: %s mutation without payload", m.Kind)
		}
		return p.applyAudienceLocked(m.Audience)
	case MutCampaignCreated:
		if m.Campaign == nil {
			return fmt.Errorf("platform: %s mutation without payload", m.Kind)
		}
		c := *m.Campaign
		p.campaigns[c.ID] = &c
		return nil
	case MutAdCreated:
		if m.Ad == nil {
			return fmt.Errorf("platform: %s mutation without payload", m.Kind)
		}
		return p.applyAdLocked(m.Ad)
	case MutAdAppealed:
		if m.Appeal == nil {
			return fmt.Errorf("platform: %s mutation without payload", m.Kind)
		}
		ad, ok := p.ads[m.Appeal.AdID]
		if !ok {
			return fmt.Errorf("platform: appeal replay for unknown ad %q", m.Appeal.AdID)
		}
		ad.Status = m.Appeal.Status
		return nil
	case MutDayDelivered:
		if m.Delivery == nil {
			return fmt.Errorf("platform: %s mutation without payload", m.Kind)
		}
		for _, id := range m.Delivery.Completed {
			ad, ok := p.ads[id]
			if !ok {
				return fmt.Errorf("platform: delivery replay for unknown ad %q", id)
			}
			ad.Status = StatusCompleted
		}
		for i := range m.Delivery.Stats {
			p.applyStatsLocked(&m.Delivery.Stats[i])
		}
		return nil
	}
	return fmt.Errorf("platform: unknown mutation kind %q", m.Kind)
}

// applyAudienceLocked installs an audience from its serialized form; the
// caller holds p.mu.
func (p *Platform) applyAudienceLocked(as *AudienceState) error {
	for _, idx := range as.Members {
		if idx < 0 || int(idx) >= p.pop.Len() {
			return fmt.Errorf("platform: audience %s member index %d outside population of %d (world seed mismatch?)",
				as.ID, idx, p.pop.Len())
		}
	}
	p.audiences[as.ID] = &CustomAudience{
		ID:      as.ID,
		Name:    as.Name,
		Size:    as.Size,
		members: slices.Clone(as.Members),
	}
	return nil
}

// applyAdLocked installs an ad from its serialized form, re-deriving the
// targeted-user list from the audiences already applied, and the
// machine-perceived creative and the folded eAR coefficients from the current
// models; the caller holds p.mu for writing.
func (p *Platform) applyAdLocked(as *AdState) error {
	audience, err := p.resolveAudience(&as.Targeting)
	if err != nil {
		return fmt.Errorf("platform: replaying ad %s: %w", as.ID, err)
	}
	ad := &Ad{
		ID:               as.ID,
		CampaignID:       as.CampaignID,
		Objective:        as.Objective,
		Creative:         as.Creative,
		Targeting:        as.Targeting,
		DailyBudgetCents: as.DailyBudgetCents,
		Status:           as.Status,
		audience:         audience,
	}
	ad.perceived = p.perceive(ad.Creative.Image)
	ad.folded = p.ear.fold(&ad.perceived)
	p.ads[ad.ID] = ad
	return nil
}

// applyStatsLocked installs delivery stats from their serialized form; the
// caller holds p.mu.
func (p *Platform) applyStatsLocked(ss *AdStatsState) {
	st := &AdStats{
		AdID:         ss.AdID,
		Impressions:  ss.Impressions,
		Reach:        ss.Reach,
		Clicks:       ss.Clicks,
		SpendCents:   ss.SpendCents,
		Breakdown:    make(map[BreakdownKey]int, len(ss.Cells)),
		HourlySeries: append([]int(nil), ss.Hourly...),
		RaceOracle:   make(map[demo.Race]int, len(ss.RaceCells)),
	}
	for _, c := range ss.Cells {
		st.Breakdown[BreakdownKey{Age: c.Age, Gender: c.Gender, Region: c.Region}] = c.N
	}
	for _, c := range ss.RaceCells {
		st.RaceOracle[c.Race] = c.N
	}
	p.stats[ss.AdID] = st
}

// audienceState serializes an audience; the caller holds p.mu (read).
func audienceState(ca *CustomAudience) *AudienceState {
	return &AudienceState{
		ID:      ca.ID,
		Name:    ca.Name,
		Size:    ca.Size,
		Members: slices.Clone(ca.members),
	}
}

// adState serializes an ad; the caller holds p.mu (read).
func adState(ad *Ad) *AdState {
	return &AdState{
		ID:               ad.ID,
		CampaignID:       ad.CampaignID,
		Objective:        ad.Objective,
		Creative:         ad.Creative,
		Targeting:        ad.Targeting,
		DailyBudgetCents: ad.DailyBudgetCents,
		Status:           ad.Status,
	}
}

// adStatsState serializes delivery stats with deterministic cell ordering;
// the caller holds p.mu (read).
func adStatsState(st *AdStats) *AdStatsState {
	ss := &AdStatsState{
		AdID:        st.AdID,
		Impressions: st.Impressions,
		Reach:       st.Reach,
		Clicks:      st.Clicks,
		SpendCents:  st.SpendCents,
		Hourly:      append([]int(nil), st.HourlySeries...),
	}
	for k, n := range st.Breakdown {
		ss.Cells = append(ss.Cells, BreakdownCell{Age: k.Age, Gender: k.Gender, Region: k.Region, N: n})
	}
	sort.Slice(ss.Cells, func(i, j int) bool {
		a, b := ss.Cells[i], ss.Cells[j]
		if a.Age != b.Age {
			return a.Age < b.Age
		}
		if a.Gender != b.Gender {
			return a.Gender < b.Gender
		}
		return a.Region < b.Region
	})
	for r, n := range st.RaceOracle {
		ss.RaceCells = append(ss.RaceCells, RaceCell{Race: r, N: n})
	}
	sort.Slice(ss.RaceCells, func(i, j int) bool { return ss.RaceCells[i].Race < ss.RaceCells[j].Race })
	return ss
}
