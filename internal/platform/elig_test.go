package platform

import (
	"math/rand"
	"sort"
	"testing"
)

// adsFor returns row pos's eligible ads as run indexes, in run order: the
// slots the auction kernel walks by offset.
func (e *eligIndex) adsFor(pos int32) []int32 {
	return e.ads[e.offsets[pos]:e.offsets[pos+1]]
}

// eligAds builds a throwaway active-ad slice with the given audiences; only
// the fields the index build reads (audience, and implicitly run order) are
// populated.
func eligAds(audiences ...[]int) []*Ad {
	ads := make([]*Ad, len(audiences))
	for i, a := range audiences {
		ads[i] = &Ad{runIdx: i}
		for _, idx := range a {
			ads[i].audience = append(ads[i].audience, int32(idx))
		}
	}
	return ads
}

// mapOracle reproduces the pre-CSR index: the adsByUser map in run-append
// order with sorted keys — the exact iteration semantics the delivery RNG
// draw order depends on.
func mapOracle(active []*Ad) (map[int][]int, []int) {
	adsByUser := map[int][]int{}
	for i, ad := range active {
		for _, idx := range ad.audience {
			adsByUser[int(idx)] = append(adsByUser[int(idx)], i)
		}
	}
	users := make([]int, 0, len(adsByUser))
	for idx := range adsByUser {
		users = append(users, idx)
	}
	sort.Ints(users)
	return adsByUser, users
}

// assertMatchesOracle checks the CSR index against the sorted-map oracle:
// identical user sequence, and identical per-user ad list in run order.
func assertMatchesOracle(t *testing.T, a *dayArena, active []*Ad) {
	t.Helper()
	e := a.buildEligIndex(active)
	adsByUser, users := mapOracle(active)
	if len(e.users) != len(users) {
		t.Fatalf("rows %d, oracle %d", len(e.users), len(users))
	}
	for pos, idx := range users {
		if int(e.users[pos]) != idx {
			t.Fatalf("row %d holds user %d, oracle %d", pos, e.users[pos], idx)
		}
		got := e.adsFor(int32(pos))
		want := adsByUser[idx]
		if len(got) != len(want) {
			t.Fatalf("user %d has %d ads, oracle %d", idx, len(got), len(want))
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("user %d ad %d: run index %d, oracle %d", idx, k, got[k], want[k])
			}
		}
	}
}

func TestEligIndexMatchesSortedMapOracle(t *testing.T) {
	cases := map[string][]*Ad{
		"single_user":     eligAds([]int{7}),
		"single_ad":       eligAds([]int{3, 9, 1, 40}),
		"disjoint":        eligAds([]int{0, 2, 4}, []int{1, 3, 5}),
		"overlapping":     eligAds([]int{5, 1, 9}, []int{9, 5, 100}, []int{1}),
		"all_users_both":  eligAds([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}),
		"one_empty":       eligAds([]int{4, 8}, nil, []int{8}),
		"gapped_indexes":  eligAds([]int{1000000, 5}, []int{500000}),
		"duplicated_sets": eligAds([]int{2, 4}, []int{2, 4}, []int{2, 4}, []int{4}),
	}
	for name, active := range cases {
		t.Run(name, func(t *testing.T) { assertMatchesOracle(t, new(dayArena), active) })
	}
}

func TestEligIndexEmptyAudiences(t *testing.T) {
	e := new(dayArena).buildEligIndex(eligAds(nil, nil))
	if len(e.users) != 0 {
		t.Fatalf("all-empty audiences: %d rows, want 0", len(e.users))
	}
	if len(e.offsets) != 1 || e.offsets[0] != 0 {
		t.Fatalf("offsets %v, want [0]", e.offsets)
	}
}

// TestEligIndexRandomizedAgainstOracle builds every trial's index in one
// arena, so each build also starts from the buffers of a different day.
func TestEligIndexRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	arena := new(dayArena)
	for trial := 0; trial < 50; trial++ {
		nAds := 1 + rng.Intn(6)
		audiences := make([][]int, nAds)
		for i := range audiences {
			n := rng.Intn(40)
			seen := map[int]bool{}
			for len(seen) < n {
				seen[rng.Intn(200)] = true
			}
			// Audiences arrive sorted in production (resolveAudience sorts);
			// the oracle comparison is order-sensitive, so mirror that.
			for idx := range seen {
				audiences[i] = append(audiences[i], idx)
			}
			sort.Ints(audiences[i])
		}
		assertMatchesOracle(t, arena, eligAds(audiences...))
	}
}

// TestEligIndexRowOrderIsIdentity: the only shard of a 1-shard day gathers
// every row in position order, each with its own slot range.
func TestEligIndexRowOrderIsIdentity(t *testing.T) {
	p, ids := benchDay(t)
	plan, err := p.prepareDay(ids)
	if err != nil {
		t.Fatal(err)
	}
	e := plan.elig
	visits := make([]visit, e.shardLen(0, 1))
	if len(visits) != len(e.users) {
		t.Fatalf("shard 0 of 1 owns %d rows, the index has %d", len(visits), len(e.users))
	}
	p.gatherRows(plan, 0, 1, visits)
	for pos, v := range visits {
		if v.row.user != e.users[pos] || v.row.lo != e.offsets[pos] || v.row.hi != e.offsets[pos+1] {
			t.Fatalf("visit %d holds user %d slots [%d, %d), row %d is user %d slots [%d, %d)", pos, v.row.user, v.row.lo, v.row.hi, pos, e.users[pos], e.offsets[pos], e.offsets[pos+1])
		}
	}
}

// TestEligIndexShardRowsPartition: for every shard count the shards' rows
// are the positions shard, shard+count, … below the row count, and together
// cover every row once — including counts above the row count, which leave
// some shards empty.
func TestEligIndexShardRowsPartition(t *testing.T) {
	e := new(dayArena).buildEligIndex(eligAds([]int{1, 2, 3, 5, 8, 13, 21}))
	for shards := 1; shards <= len(e.users)+2; shards++ {
		seen := make([]int, len(e.users))
		for shard := 0; shard < shards; shard++ {
			n := e.shardLen(shard, shards)
			if last := shard + n*shards; last < len(e.users) || (n > 0 && last-shards >= len(e.users)) {
				t.Fatalf("shard %d of %d owns %d of %d rows", shard, shards, n, len(e.users))
			}
			for k := 0; k < n; k++ {
				seen[shard+k*shards]++
			}
		}
		for pos, n := range seen {
			if n != 1 {
				t.Fatalf("%d shards: row %d owned %d times", shards, pos, n)
			}
		}
	}
}
