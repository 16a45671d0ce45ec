package population

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// TestStreamChunkSizeInvariance: Stream's output must be byte-identical at
// every chunk size — one-row chunks, a prime size that never aligns with the
// flush boundary, and a large one — and identical to the one-shot Build over
// the materialized registries.
func TestStreamChunkSizeInvariance(t *testing.T) {
	cfg := Config{Seed: 301}
	gens := diffGenConfigs(31)
	ref, err := Build(cfg, diffRegistries(t, 31)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1024} {
		pop, err := Stream(cfg, chunk, gens...)
		if err != nil {
			t.Fatal(err)
		}
		if pop.Len() != ref.Len() {
			t.Fatalf("chunk %d: size %d, want %d", chunk, pop.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if !sameUser(pop.View(i), ref.View(i)) {
				t.Fatalf("chunk %d: user %d diverged from one-shot build", chunk, i)
			}
		}
	}
}

func TestStreamErrors(t *testing.T) {
	gens := diffGenConfigs(32)
	if _, err := Stream(Config{Seed: 1}, 0, gens...); err == nil {
		t.Error("zero chunk size: want error")
	}
	if _, err := Stream(Config{Seed: 1}, 64); err == nil {
		t.Error("no generators: want error")
	}
	if _, err := Stream(Config{Seed: 1, BaseMatchRate: 2}, 64, gens...); err == nil {
		t.Error("bad match rate: want error")
	}
	bad := gens[0]
	bad.NumVoters = 0
	if _, err := Stream(Config{Seed: 1}, 64, bad); err == nil {
		t.Error("invalid generator config: want error")
	}
	if _, _, err := BuildIndexed(Config{Seed: 1}); err == nil {
		t.Error("indexed, no generators: want error")
	}
	if _, _, err := BuildIndexed(Config{Seed: 1, BaseMatchRate: 2}, gens...); err == nil {
		t.Error("indexed, bad match rate: want error")
	}
	if _, _, err := BuildIndexed(Config{Seed: 1}, bad); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Errorf("indexed, invalid generator config: got %v, want the registry's refusal", err)
	}
}

// maxRetainedBytesPerUser is the documented steady-state memory budget of
// the columnar layout: 46 bytes of column data per user (1 age + 1 gender +
// 1 race + 1 state + 2 zip index + 8 activity + 32 pii digest; the travel
// probability is one value for every user), ×9/8 for the slack compact()
// tolerates (51.75), plus a small allowance for the ZIP dictionary and slice
// headers. The accounted bytes also hold the PII index the builder hands the
// population (4-byte slots at ≤70 % load, its table sized for the voters
// given): 55.0 B/user in this test's world, 48.2 of columns and 6.8 of
// index. The legacy struct layout retained ~190 bytes/user (80-byte
// struct, 64-byte heap hex key, ~50-byte map entry), so this asserts the
// ≥3x reduction the columnar refactor exists for.
const maxRetainedBytesPerUser = 56

// TestMemoryBudgetPerUser checks both the accounting (MemoryBytes) and the
// actual heap: building a population must not retain more than the budget
// per user.
func TestMemoryBudgetPerUser(t *testing.T) {
	fl := voter.DefaultGeneratorConfig(demo.StateFL, 41)
	fl.NumVoters = 60000
	nc := voter.DefaultGeneratorConfig(demo.StateNC, 42)
	nc.NumVoters = 60000

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pop, err := Stream(Config{Seed: 401}, 8192, fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	n := int64(pop.Len())
	if got := pop.MemoryBytes() / n; got > maxRetainedBytesPerUser {
		t.Errorf("accounted bytes/user %d over budget %d", got, maxRetainedBytesPerUser)
	}
	// Live-heap growth includes the ZIP dictionary, runtime slack, and any
	// allocator noise, so give it 2x headroom over the column budget.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 2*maxRetainedBytesPerUser*n {
		t.Errorf("heap grew %d bytes for %d users (%d/user), budget %d/user (2x headroom)",
			growth, n, growth/n, 2*maxRetainedBytesPerUser)
	}
}

// maxIndexBytesPerVoter is a voter.Index's budget: an Entry is a 32-byte
// digest, a 2-byte ZIP id and three 1-byte fields (age, gender, race) — 37
// bytes, 38 with the struct's 2-byte alignment — and the poverty table
// adds 8 bytes per ZIP, a few hundredths of a byte per voter. A Record with
// its six strings is ~150 bytes.
const maxIndexBytesPerVoter = 40

// TestIndexMemoryBudgetPerVoter checks an index's layout and what building
// one retains: the entries an index holds, over every voter of its
// registry, stay within the budget.
func TestIndexMemoryBudgetPerVoter(t *testing.T) {
	if size := unsafe.Sizeof(voter.Entry{}); size != 38 {
		t.Errorf("voter.Entry is %d bytes, want 38", size)
	}
	fl := voter.DefaultGeneratorConfig(demo.StateFL, 43)
	fl.NumVoters = 60000
	nc := voter.DefaultGeneratorConfig(demo.StateNC, 44)
	nc.NumVoters = 60000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pop, indexes, err := BuildIndexed(Config{Seed: 403}, fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	voters := int64(fl.NumVoters + nc.NumVoters)
	for _, ix := range indexes {
		if got := int64(cap(ix.Entries)) * int64(unsafe.Sizeof(voter.Entry{})) / int64(len(ix.Entries)); got > maxIndexBytesPerVoter {
			t.Errorf("%v index holds %d bytes/voter, budget %d", ix.State, got, maxIndexBytesPerVoter)
		}
	}
	// What the build retains is the population's columns and the indexes;
	// the indexes' share is the growth less the columns' accounted bytes,
	// with the same 2x headroom TestMemoryBudgetPerUser gives the columns.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc) - pop.MemoryBytes()
	if growth > 2*maxIndexBytesPerVoter*voters {
		t.Errorf("indexes retain %d bytes for %d voters (%d/voter), budget %d/voter (2x headroom)",
			growth, voters, growth/voters, 2*maxIndexBytesPerVoter)
	}
	runtime.KeepAlive(indexes)
}

// TestStreamDoesNotAllocatePerVoter: a streamed build's allocations are its
// columns, its index and its ZIP tables, whose number does not grow with
// the voter count. A voter is drawn, matched and hashed in reused storage,
// so doubling the world may add a handful of allocations, not one a voter.
// BuildIndexed adds one voter index per generator, sized up front.
func TestStreamDoesNotAllocatePerVoter(t *testing.T) {
	allocs := func(voters int, build func(fl, nc voter.GeneratorConfig) error) float64 {
		fl := voter.DefaultGeneratorConfig(demo.StateFL, 71)
		fl.NumVoters = voters
		nc := voter.DefaultGeneratorConfig(demo.StateNC, 72)
		nc.NumVoters = voters
		return testing.AllocsPerRun(1, func() {
			if err := build(fl, nc); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, build := range map[string]func(fl, nc voter.GeneratorConfig) error{
		"Stream": func(fl, nc voter.GeneratorConfig) error {
			_, err := Stream(Config{Seed: 701}, 65536, fl, nc)
			return err
		},
		"BuildIndexed": func(fl, nc voter.GeneratorConfig) error {
			_, _, err := BuildIndexed(Config{Seed: 701}, fl, nc)
			return err
		},
	} {
		small, large := allocs(50_000, build), allocs(100_000, build)
		if d := large - small; d > 64 || d < -64 {
			t.Errorf("%s: 2×100 000 voters allocated %v times, 2×50 000 %v: the build allocates per voter", name, large, small)
		}
	}
}

// TestViewAccessorsDoNotAllocate pins the hot-path contract: reading user
// attributes through a view performs zero heap allocations. (PIIKey is
// excluded — it materializes a hex string by design.)
func TestViewAccessorsDoNotAllocate(t *testing.T) {
	pop, err := Build(Config{Seed: 402}, diffRegistries(t, 43)...)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	var sinkState demo.State
	allocs := testing.AllocsPerRun(1000, func() {
		u := pop.View(17 % pop.Len())
		sink += u.Activity() + u.TravelProb() + float64(u.Age())
		if u.Gender() == demo.GenderFemale && u.Race() == demo.RaceBlack {
			sink++
		}
		sinkState = u.State()
		_ = u.AgeBucket()
		_ = u.ZIP()
	})
	if allocs != 0 {
		t.Errorf("view accessors allocated %v times per run, want 0", allocs)
	}
	_ = sink
	_ = sinkState
}

// BenchmarkStream measures the streamed world build end to end — generate,
// match draw, PII hash, duplicate probe, column append — in the shape (two
// states, 64k chunks) of the 1M-user worlds the delivery benchmarks stand
// on: at 2 × 100 000 voters, where the PII index fits in cache, and at
// 2 × 785 000, that world's size, where a probe misses it.
func BenchmarkStream(b *testing.B) {
	for _, voters := range []int{100_000, 785_000} {
		b.Run(fmt.Sprintf("2x%d", voters), func(b *testing.B) {
			fl := voter.DefaultGeneratorConfig(demo.StateFL, 51)
			fl.NumVoters = voters
			nc := voter.DefaultGeneratorConfig(demo.StateNC, 52)
			nc.NumVoters = voters
			b.ReportAllocs()
			users := 0
			for i := 0; i < b.N; i++ {
				pop, err := Stream(Config{Seed: 501}, 65536, fl, nc)
				if err != nil {
					b.Fatal(err)
				}
				users += pop.Len()
			}
			b.ReportMetric(float64(users)/b.Elapsed().Seconds(), "users/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(fl.NumVoters+nc.NumVoters)), "ns/voter")
		})
	}
}
