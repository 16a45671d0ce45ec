package platform

import "slices"

// eligIndex is a delivery day's eligibility index in CSR form: for every
// user targeted by at least one active ad, the run-order list of ads that
// may bid on their slots. It replaces the old adsByUser map[int][]*Ad —
// three flat int32 slices instead of a hash table with one heap-allocated
// pointer slice per user, built once per day by prepareDay.
//
// Layout contract, pinned by the CSR regression tests against the old
// sorted-map semantics:
//   - users holds the targeted population rows in ascending order (the old
//     sorted-keys order the per-tick shuffles start from);
//   - row r's eligible ads are ads[offsets[r]:offsets[r+1]], as run indexes
//     into the active slice, in run order (the old append order).
//
// Day loops address users by *row position* in this index, not by
// population index; position is what the shuffles permute and what the
// round-robin shard and session partitions slice.
type eligIndex struct {
	users   []int32
	offsets []int32 // len(users)+1
	ads     []int32
}

// buildEligIndex constructs the index for the run's active ads (run order =
// slice order). It consumes no randomness and allocates only the three CSR
// slices plus one transient per-row cursor.
func buildEligIndex(active []*Ad) *eligIndex {
	total := 0
	for _, ad := range active {
		total += len(ad.audience)
	}
	all := make([]int32, 0, total)
	for _, ad := range active {
		for _, idx := range ad.audience {
			all = append(all, int32(idx))
		}
	}
	slices.Sort(all)
	users := slices.Compact(all)

	e := &eligIndex{
		users:   users,
		offsets: make([]int32, len(users)+1),
		ads:     make([]int32, total),
	}
	// Degree count, prefix sums, then a run-order fill with per-row
	// cursors: each row's ad list comes out in active-slice order because
	// the outer loop visits ads in run order.
	deg := make([]int32, len(users))
	for _, ad := range active {
		r := int32(0)
		for _, idx := range ad.audience {
			r = e.rowFrom(r, int32(idx))
			deg[r]++
		}
	}
	var off int32
	for r, d := range deg {
		e.offsets[r] = off
		off += d
	}
	e.offsets[len(users)] = off
	next := deg[:0] // reuse: deg is dead after the prefix sum
	next = append(next, e.offsets[:len(users)]...)
	for i, ad := range active {
		r := int32(0)
		for _, idx := range ad.audience {
			r = e.rowFrom(r, int32(idx))
			e.ads[next[r]] = int32(i)
			next[r]++
		}
	}
	return e
}

// rows returns the number of targeted users.
func (e *eligIndex) rows() int { return len(e.users) }

// rowFrom returns the row position of a population index that is present,
// given the row of the previous lookup. Audiences arrive ascending
// (resolveAudience sorts them), so walking one ad's audience is a merge
// against the sorted users: the cursor only steps forward, a few rows per
// lookup. A lookup that would have to step back searches instead.
func (e *eligIndex) rowFrom(r, user int32) int32 {
	if e.users[r] > user {
		pos, _ := slices.BinarySearch(e.users, user)
		return int32(pos)
	}
	for e.users[r] != user {
		r++
	}
	return r
}

// shardRows returns the row positions shard `shard` of `shards` owns, in
// ascending order: the deterministic base order the per-tick seeded shuffles
// start from (ascending population index, exactly the old sorted user list).
// The split is round-robin by position, which spreads every demographic
// stratum across shards instead of giving one shard a contiguous
// (correlated) block.
func (e *eligIndex) shardRows(shard, shards int) []int32 {
	order := make([]int32, 0, (len(e.users)-shard+shards-1)/shards)
	for i := shard; i < len(e.users); i += shards {
		order = append(order, int32(i))
	}
	return order
}
