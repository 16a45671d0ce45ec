package platform

// The tick barrier: phase 1 (budget pacing) and phase 3 (spend commit) of
// every delivery day. RunDayWorkers drives a PacingController over the shards
// of an in-process day, internal/coordinator drives one over shard backends
// reached by HTTP; byte-identical output across them depends on this file
// being the only place the controller loop and its arithmetic live.

import (
	"fmt"
	"math"
)

// pacingStep applies one tick of the budget-pacing controller to one ad:
// the multiplicative effective-bid update toward on-schedule spend (§2.1:
// "this process is called bid pacing"), computed from the *committed* spend,
// plus the tick's spend cap that spreads the budget over the whole day
// rather than dumping it into the first slots.
func pacingStep(pacing, spent, budget, elapsed float64, ticks int, greedy bool) (newPacing, tickCap float64) {
	target := budget * elapsed
	switch {
	case spent >= budget:
		pacing = 0 // budget exhausted
	case spent > target:
		pacing *= 0.82
	default:
		pacing *= 1.25
	}
	pacing = math.Min(pacing, 50)
	tickCap = 2 * budget / float64(ticks)
	if greedy {
		// A5 ablation: no pacing control at all — bid high until the
		// budget runs out.
		pacing = 5
		tickCap = budget
	}
	return pacing, tickCap
}

// shardCapShare slices what an ad may still spend this tick into one
// shard's share. Each shard gets a 1/shards slice, so the committed total
// overruns the tick cap by at most one winning price per shard; the commit
// clamp absorbs any overrun of the daily budget itself.
func shardCapShare(tickCap, budget, spent float64, shards int) float64 {
	remaining := math.Min(tickCap, budget-spent)
	if remaining < 0 {
		remaining = 0
	}
	return remaining / float64(shards)
}

// commitSpend folds one shard's tick spend into an ad's committed total,
// clamped so the committed day never exceeds the daily budget — the same
// overspend clamp a live shard applies per auction, applied to the shard
// batch.
func commitSpend(spent, tickSpent, budget float64) float64 {
	if spent+tickSpent > budget {
		tickSpent = budget - spent
	}
	return spent + tickSpent
}

// maxDeliveryWorkers bounds the shard count so a wire-supplied worker count
// cannot make the engine allocate absurd numbers of shards.
const maxDeliveryWorkers = 64

// errShardCount is a day's shard count outside [1, maxDeliveryWorkers]. A
// day's output depends on the count, so every entry point refuses one it
// cannot run rather than substituting one the caller did not ask for.
var errShardCount = fmt.Errorf("platform: shard count outside [1, %d]", maxDeliveryWorkers)

func checkShardCount(shards int) error {
	if shards < 1 || shards > maxDeliveryWorkers {
		return fmt.Errorf("%w: got %d", errShardCount, shards)
	}
	return nil
}

// DayAdPlan is one active ad's coordinator-visible delivery plan: identity,
// budget, and the starting effective bid the platform derived from its eAR
// model. Every shard of a coordinated day computes the identical plan from
// the same CRUD state, so the coordinator can adopt any one shard's plan
// (and assert the rest agree).
type DayAdPlan struct {
	AdID             string  `json:"ad_id"`
	DailyBudgetCents int     `json:"daily_budget_cents"`
	Pacing           float64 `json:"pacing"`
}

// DayInit is a shard backend's answer to beginning a coordinated delivery
// session: the resolved active-ad plans (in run order, the order every
// per-tick vector is indexed by) and the pacing-relevant configuration.
type DayInit struct {
	Session string      `json:"session"`
	Ticks   int         `json:"ticks"`
	Greedy  bool        `json:"greedy"`
	Ads     []DayAdPlan `json:"ads"`
}

// TickDirective is the coordinator's frozen tick-start snapshot for one ad:
// the updated effective bid, the committed day spend every shard bids
// against, and this shard's slice of the tick spend cap. Shards treat all
// three as read-only for the duration of the tick — the two-phase contract's
// phase-1 freeze, carried over the wire.
type TickDirective struct {
	Pacing float64 `json:"pacing"`
	Spent  float64 `json:"spent"`
	Cap    float64 `json:"cap"`
}

// TickReport is one shard's phase-2 result for one tick: the spend each ad
// accrued on this shard (indexed in run order), ready for the coordinator's
// phase-3 commit, plus the auction count for observability.
type TickReport struct {
	Tick     int       `json:"tick"`
	Spent    []float64 `json:"spent"`
	Auctions int64     `json:"auctions"`
}

// PacingController is the tick barrier of a delivery day: the phase-1 pacing
// update, the phase-3 spend commit and the end-of-day rounding. It is the only
// caller of pacingStep, shardCapShare and commitSpend, so a coordinated day's
// committed spend trajectory is bit-identical to the in-process run with the
// same (ads, seed, shards) by construction.
//
// JSON carries the floats without loss: encoding/json emits the shortest
// round-trip representation of a float64, which decodes to the identical
// bits, so freezing a snapshot through an HTTP hop preserves byte
// determinism end to end.
type PacingController struct {
	ticks  int
	greedy bool
	shards int
	ads    []DayAdPlan
	spent  []float64
	dirs   []TickDirective // handed out by TickDirectives, reused every tick
}

// NewPacingController builds the controller from one shard's DayInit. shards
// is the number of shards the day fans out to; with shards == 1 the
// directives carry the live shard's undivided tick caps, matching the
// historical golden digests.
func NewPacingController(init *DayInit, shards int) (*PacingController, error) {
	if init == nil {
		return nil, fmt.Errorf("platform: pacing controller needs a day init")
	}
	if init.Ticks < 1 {
		return nil, fmt.Errorf("platform: pacing controller needs ticks >= 1, got %d", init.Ticks)
	}
	if err := checkShardCount(shards); err != nil {
		return nil, err
	}
	if len(init.Ads) == 0 {
		return nil, fmt.Errorf("platform: pacing controller needs at least one ad plan")
	}
	return &PacingController{
		ticks:  init.Ticks,
		greedy: init.Greedy,
		shards: shards,
		ads:    append([]DayAdPlan(nil), init.Ads...),
		spent:  make([]float64, len(init.Ads)),
		dirs:   make([]TickDirective, len(init.Ads)),
	}, nil
}

// Ticks reports the day length in pacing ticks.
func (c *PacingController) Ticks() int { return c.ticks }

// TickDirectives runs the phase-1 pacing update for one tick and returns
// the frozen per-ad snapshot to scatter to every shard. tick must advance
// 0..Ticks()-1; the controller is stateful (pacing evolves multiplicatively
// from the committed spend). The returned slice is overwritten by the next
// call: a caller that keeps a tick's directives copies them.
func (c *PacingController) TickDirectives(tick int) []TickDirective {
	elapsed := float64(tick) / float64(c.ticks)
	dirs := c.dirs
	for i := range c.ads {
		ad := &c.ads[i]
		budget := float64(ad.DailyBudgetCents) / 100
		pacing, tickCap := pacingStep(ad.Pacing, c.spent[i], budget, elapsed, c.ticks, c.greedy)
		ad.Pacing = pacing
		cap := tickCap
		if c.shards > 1 {
			cap = shardCapShare(tickCap, budget, c.spent[i], c.shards)
		}
		dirs[i] = TickDirective{Pacing: pacing, Spent: c.spent[i], Cap: cap}
	}
	return dirs
}

// CommitTick runs the phase-3 barrier commit: fold every shard's reported
// tick spend into the committed totals, in fixed shard order (fixed
// floating-point addition order), clamped at the daily budget. perShard
// must hold one spend vector per shard, each indexed in run order.
//
// The shard of a 1-shard day is live: it accumulates spend one clamped
// auction price at a time — an addition order only the shard itself can
// reproduce. Its TickReport therefore carries committed absolute
// spend, and the controller adopts it verbatim instead of folding.
func (c *PacingController) CommitTick(perShard [][]float64) error {
	if len(perShard) != c.shards {
		return fmt.Errorf("platform: commit got %d shard reports, want %d", len(perShard), c.shards)
	}
	for s, spent := range perShard {
		if len(spent) != len(c.ads) {
			return fmt.Errorf("platform: shard %d reported %d spends, want %d", s, len(spent), len(c.ads))
		}
	}
	if c.shards == 1 {
		copy(c.spent, perShard[0])
		return nil
	}
	for _, spent := range perShard {
		for i := range c.ads {
			c.spent[i] = commitSpend(c.spent[i], spent[i], float64(c.ads[i].DailyBudgetCents)/100)
		}
	}
	return nil
}

// SpendCents reports the authoritative end-of-day spend per ad in cents,
// rounded exactly once from the committed float totals. The coordinator
// distributes these values to every shard at day finish, so cross-shard
// reports agree to the bit (summing independently rounded per-shard values
// would not).
func (c *PacingController) SpendCents() []float64 {
	out := make([]float64, len(c.ads))
	for i := range c.ads {
		out[i] = math.Round(c.spent[i] * 100)
	}
	return out
}
