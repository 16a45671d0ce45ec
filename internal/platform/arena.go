package platform

import (
	"sync/atomic"
	"weak"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// dayArena owns every buffer a delivery day fills: the CSR eligibility index
// and the two transients its build ranks with, the plan's memo tables, demand
// table and slot counters, and per owned shard the shard itself (its visit
// array, accumulators, hourly counters and served-row buffer) and its report
// vector. A day takes one when it is prepared and holds it until it ends;
// every buffer is re-sized and re-initialised for the day that takes it, so a
// day's output does not depend on whether its arena is new or reused
// (TestArenaIsInvisible).
//
// A day that ends parks its arena behind the platform's weak pointer
// (parkArena): the next prepareDay takes it back if the garbage collector has
// not collected it since, and allocates a new one otherwise. A run of
// back-to-back days therefore allocates its buffers once, while an arena left
// parked through a long stretch of other work (an audit's direction
// discovery between its small days) is garbage at the next collection, as
// the buffers of a finished day always were. A strong reference would keep
// the largest day's buffers live for the platform's lifetime.
type dayArena struct {
	elig  eligIndex
	words []uint64 // buildEligIndex's bitset over population indexes
	below []int32  // its per-word rank prefix
	// demand is competingDemand by demographic key. It reads nothing of the
	// day, so it is filled once, when the arena is made.
	demand        []float64
	terms, clicks []atomic.Uint64
	shown         []uint8
	// shards holds every shard an earlier day built; a run uses the first
	// ones, by owned-shard index, and reports their spend in reports.
	shards  []*dayShard
	reports [][]float64
}

// takeArena returns the parked arena if it is still there, and a new one
// otherwise; the caller holds p.mu for writing. Nothing else holds the arena
// until the day that takes it parks it again.
func (p *Platform) takeArena() *dayArena {
	a := p.spareArena.Value()
	p.spareArena = weak.Pointer[dayArena]{}
	if a == nil {
		a = &dayArena{demand: make([]float64, numKeys)}
		for key := range a.demand {
			a.demand[key] = p.competingDemand(key/(cellGenders*numRaces), demo.Race(key%numRaces))
		}
	}
	return a
}

// parkArena ends a day's hold on its arena; the caller holds p.mu for
// writing. The shards' served-row buffers are cleared to their capacity
// first, flushed rows included, so that no *Ad outlives its day in the arena.
func (p *Platform) parkArena(a *dayArena) {
	for _, sh := range a.shards {
		clear(sh.served[:cap(sh.served)])
		sh.served = sh.served[:0]
	}
	p.spareArena = weak.Make(a)
}

// resize returns s with length n, reusing its array when it holds n values.
// The values are left as they are; the caller initialises them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
