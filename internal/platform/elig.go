package platform

import "math/bits"

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
// slice order). It consumes no randomness and allocates the three CSR slices
// plus two transients: a bitset over population indexes up to the largest
// one targeted, and its per-word rank prefix.
//
// The targeted set is the bitset: users is its set bits in order (select),
// and a population index's row is the number of set bits below it (rank) —
// a prefix read and a popcount, whatever order audiences arrive in.
func buildEligIndex(active []*Ad) *eligIndex {
	total, top := 0, int32(-1)
	for _, ad := range active {
		total += len(ad.audience)
		for _, idx := range ad.audience {
			top = max(top, idx)
		}
	}
	words := make([]uint64, (top+64)/64)
	for _, ad := range active {
		for _, idx := range ad.audience {
			words[idx>>6] |= 1 << (idx & 63)
		}
	}
	below := make([]int32, len(words)) // set bits in the words before this one
	n := int32(0)
	for w, set := range words {
		below[w] = n
		n += int32(bits.OnesCount64(set))
	}
	row := func(idx int32) int32 {
		return below[idx>>6] + int32(bits.OnesCount64(words[idx>>6]&(1<<(idx&63)-1)))
	}

	e := &eligIndex{
		users:   make([]int32, 0, n),
		offsets: make([]int32, n+1),
		ads:     make([]int32, total),
	}
	for w, set := range words {
		for ; set != 0; set &= set - 1 {
			e.users = append(e.users, int32(w<<6+bits.TrailingZeros64(set)))
		}
	}
	// Degree count into offsets[r+1], prefix sums, then a run-order fill
	// that advances offsets[r] as row r's cursor: each row's ad list comes
	// out in active-slice order because the outer loop visits ads in run
	// order. The fill leaves offsets[r] at row r's end, which is row r+1's
	// start, so shifting one place restores the offsets.
	for _, ad := range active {
		for _, idx := range ad.audience {
			e.offsets[row(idx)+1]++
		}
	}
	for r := range e.users {
		e.offsets[r+1] += e.offsets[r]
	}
	for i, ad := range active {
		for _, idx := range ad.audience {
			r := row(idx)
			e.ads[e.offsets[r]] = int32(i)
			e.offsets[r]++
		}
	}
	copy(e.offsets[1:], e.offsets[:n])
	e.offsets[0] = 0
	return e
}

// rows returns the number of targeted users.
func (e *eligIndex) rows() int { return len(e.users) }

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
