package platform

import (
	"math"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// dayPlan is everything about a delivery day that holds from its first tick
// to its last, built once by prepareDay so the auction kernel
// (delivery_shard.go) reads flat arrays instead of recomputing pure
// functions of (user, ad) and hashing into maps at every auction.
//
// score and shown are aligned slot for slot with elig.ads: slot k of row r is
// the pair (user elig.users[r], ad elig.ads[k]). A slot belongs to one row
// and a row to exactly one shard (position mod shard count), so shards fill
// and count their slots without synchronisation, and a fleet shard only ever
// touches the rows it owns.
type dayPlan struct {
	active []*Ad // by run index, the CSR index's ad addressing
	elig   *eligIndex
	// rows is aligned with elig.users. A shard gathers the rows it owns when
	// it is built (newDayShard); rows nobody on this backend owns stay zero
	// and are never read.
	rows []planRow
	// score memoises optimizationTerm per slot, filled at the slot's first
	// auction. 0 marks "not scored yet": a term that really is 0 is simply
	// recomputed each time, which is slower but not wrong.
	score []float64
	// shown counts the impressions of the slot's ad on the slot's user, for
	// the frequency cap; reach is the number of slots that left 0. New bounds
	// FrequencyCap by the counter's range.
	shown []uint8
	// bids is the tick's bid state by run index: the snapshot every shard of
	// a multi-shard day reads but never writes between barriers, and the
	// state a live shard charges as it goes.
	bids []adBid
}

// maxFrequencyCap is the largest per-user daily cap a dayPlan.shown counter
// can enforce.
const maxFrequencyCap = math.MaxUint8

// adBid is one ad's bidding state within a tick.
type adBid struct {
	pacing float64 // effective bid multiplier
	spent  float64 // committed day spend, dollars
	budget float64 // daily budget, dollars
	cap    float64 // what one shard may still spend this tick
}

// planRow is the per-user record the tick loop walks: the day-invariant
// inputs of the session draw, the background bid and the delivery report,
// gathered from the population columns into one contiguous 32-byte record so
// a shuffled visit costs one cache line rather than one per column.
type planRow struct {
	quiet  float64 // sessionThreshold of activity/ticks
	demand float64 // the background bid before its per-slot noise
	travel float64 // probability an impression lands outside the home state
	user   int32   // population index
	cell   uint8   // breakdown cell of (age bucket, gender) in region 0
	race   demo.Race
	home   demo.State
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

// newDayPlan builds the plan's index and slot arrays for the active ads (run
// order = slice order) and their starting bids.
func newDayPlan(active []*Ad, bids []adBid) *dayPlan {
	elig := buildEligIndex(active)
	return &dayPlan{
		active: active,
		elig:   elig,
		rows:   make([]planRow, elig.rows()),
		score:  make([]float64, len(elig.ads)),
		shown:  make([]uint8, len(elig.ads)),
		bids:   bids,
	}
}

// gatherRows fills the plan rows at the given positions from the population
// columns. Every product keeps the operand order the per-auction code had,
// so the hoisted values are the same bits.
func (p *Platform) gatherRows(plan *dayPlan, order []int32) {
	ticks := float64(p.cfg.Ticks)
	for _, pos := range order {
		u := p.pop.View(int(plan.elig.users[pos]))
		row := &plan.rows[pos]
		row.quiet = sessionThreshold(u.Activity() / ticks)
		row.demand = p.competingDemand(u)
		row.travel = u.TravelProb()
		row.user = int32(u.ID())
		row.cell = uint8((int(u.AgeBucket())*cellGenders + int(u.Gender())) * cellRegions)
		row.race = u.Race()
		row.home = u.State()
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
