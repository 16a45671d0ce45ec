package platform

import (
	"math"
	"sync/atomic"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// dayPlan is everything about a delivery day that holds from its first tick
// to its last, built once by prepareDay so the auction kernel
// (delivery_shard.go) reads flat arrays instead of recomputing pure functions
// and hashing into maps at every auction. Between the barrier's directives
// and a table miss the kernel reads nothing else: not the platform's
// configuration, not the population.
type dayPlan struct {
	active []*Ad // by run index, the CSR index's ad addressing
	elig   *eligIndex
	// rows is aligned with elig.users. A shard gathers the rows it owns when
	// it is built (newDayShard); rows nobody on this backend owns stay zero
	// and are never read.
	rows []planRow
	// terms and clicks memoise optimizationTerm and Behavior.ClickProb per
	// (demographic key, ad) as float64 bits at [key*len(active)+run], so the
	// ads competing for one user sit side by side. Both models read a user's
	// age, gender and race and nothing else (TestMemoKeyIsAllTheModelsRead),
	// so the user at hand stands for everyone with the key. An entry is filled
	// at its first use; 0 marks "not computed yet": a value that really is 0
	// is recomputed each time, which is slower but not wrong. The tables are
	// shared by every shard of the day without a lock: whoever fills an entry
	// stores the same bits, because the function is pure, and the accesses
	// are atomic.
	terms, clicks []atomic.Uint64
	// shown counts the impressions of the slot's ad on the slot's user, for
	// the frequency cap; reach is the number of slots that left 0. It is
	// aligned slot for slot with elig.ads: slot k of row r is the pair (user
	// elig.users[r], ad elig.ads[k]). A slot belongs to one row and a row to
	// exactly one shard (position mod shard count), so shards count their
	// slots without synchronisation. New bounds FrequencyCap by the counter's
	// range.
	shown []uint8
	// bids is the tick's bid state by run index: the snapshot every shard of
	// a multi-shard day reads but never writes between barriers, and the
	// state a live shard charges as it goes.
	bids []adBid
	// The configuration an auction reads, fixed for the life of a platform.
	frequencyCap int
	quality      float64
	noise        float64 // ValueNoise, the lognormal's σ
	noiseShift   float64 // σ²/2, which keeps the noise factor's mean at 1
}

// maxFrequencyCap is the largest per-user daily cap a dayPlan.shown counter
// can enforce.
const maxFrequencyCap = math.MaxUint8

// numKeys is the number of demographic keys: every (age, gender, race) a
// population row can hold.
const numKeys = (math.MaxUint8 + 1) * cellGenders * numRaces

// adBid is one ad's bidding state within a tick.
type adBid struct {
	pacing float64 // effective bid multiplier
	spent  float64 // committed day spend, dollars
	budget float64 // daily budget, dollars
	cap    float64 // what one shard may still spend this tick
}

// planRow is the per-user record an auction reads: the day-invariant inputs
// of the background bid, the memo key and the delivery report, gathered from
// the population columns into one contiguous 24-byte record so a visit with a
// session costs one cache line rather than one per column.
type planRow struct {
	demand float64 // the background bid before its per-slot noise
	travel float64 // probability an impression lands outside the home state
	user   int32   // population index
	cell   uint8   // breakdown cell of (age bucket, gender) in region 0
	race   demo.Race
	home   demo.State
	age    uint8
}

// key is the row's demographic key, in [0, numKeys). The gender is read back
// out of the breakdown cell.
func (row *planRow) key() int {
	gender := int(row.cell) / cellRegions % cellGenders
	return (int(row.age)*cellGenders+gender)*numRaces + int(row.race)
}

// visit is one entry of the array a shard's tick shuffles and then scans in
// order: the row's session threshold, which every user-tick reads, beside the
// row's position, which only the ~13 % of user-ticks that have a session
// follow into plan.rows.
type visit struct {
	quiet float64 // sessionThreshold of activity/ticks
	pos   int32   // row position in the plan's eligIndex
}

// The dense breakdown: one counter per (age bucket, gender, region), region
// fastest, standing in for map[BreakdownKey]int inside the day.
const (
	cellGenders = int(demo.GenderFemale) + 1
	cellRegions = int(demo.StateNC) + 1
	numCells    = demo.NumAgeBuckets * cellGenders * cellRegions
	numRaces    = int(demo.RaceBlack) + 1
)

// cellKey is the breakdown key of dense cell c.
func cellKey(c int) BreakdownKey {
	return BreakdownKey{
		Age:    demo.AgeBucket(c / (cellGenders * cellRegions)),
		Gender: demo.Gender(c / cellRegions % cellGenders),
		Region: demo.State(c % cellRegions),
	}
}

// newDayPlan builds the plan's index, memo tables and slot counters for the
// active ads (run order = slice order) and their starting bids.
func (p *Platform) newDayPlan(active []*Ad, bids []adBid) *dayPlan {
	elig := buildEligIndex(active)
	sigma := p.cfg.ValueNoise
	return &dayPlan{
		active:       active,
		elig:         elig,
		rows:         make([]planRow, elig.rows()),
		terms:        make([]atomic.Uint64, numKeys*len(active)),
		clicks:       make([]atomic.Uint64, numKeys*len(active)),
		shown:        make([]uint8, len(elig.ads)),
		bids:         bids,
		frequencyCap: p.cfg.FrequencyCap,
		quality:      p.cfg.Quality,
		noise:        sigma,
		noiseShift:   sigma * sigma / 2,
	}
}

// gatherRows fills the plan rows at the given positions from the population
// columns, and the visit entry of each. Every product keeps the operand order
// the per-auction code had, so the hoisted values are the same bits.
func (p *Platform) gatherRows(plan *dayPlan, order []int32, visits []visit) {
	ticks := float64(p.cfg.Ticks)
	for i, pos := range order {
		u := p.pop.View(int(plan.elig.users[pos]))
		visits[i] = visit{quiet: sessionThreshold(u.Activity() / ticks), pos: pos}
		row := &plan.rows[pos]
		row.demand = p.competingDemand(u)
		row.travel = u.TravelProb()
		row.user = int32(u.ID())
		row.cell = uint8((int(u.AgeBucket())*cellGenders + int(u.Gender())) * cellRegions)
		row.race = u.Race()
		row.home = u.State()
		row.age = uint8(u.Age())
	}
}

// competingDemand is the level of the highest competing total value for a
// user's slots, before the per-slot noise. Competition is stiffer for
// younger users, making them more expensive for a budget-paced ad to win.
func (p *Platform) competingDemand(u population.UserView) float64 {
	ageFactor := 1.0
	if age := u.Age(); age < 65 {
		ageFactor += p.cfg.CompetitionAgeSlope * float64(65-age) / 47
	}
	raceFactor := 1.0
	if u.Race() == demo.RaceWhite {
		raceFactor += p.cfg.CompetitionWhitePremium
	}
	return p.cfg.CompetitionBase * ageFactor * raceFactor
}
