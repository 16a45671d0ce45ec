package population

import (
	"runtime"
	"testing"

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
}

// maxRetainedBytesPerUser is the documented steady-state memory budget of
// the columnar layout: 54 bytes of column data per user (1 age + 1 gender +
// 1 race + 1 state + 2 zip index + 8 activity + 8 travel + 32 pii digest),
// ×9/8 for the slack compact() tolerates, plus a small allowance for the ZIP
// dictionary and slice headers. The legacy struct layout retained ~190
// bytes/user (80-byte struct, 64-byte heap hex key, ~50-byte map entry), so
// this asserts the ≥3x reduction the columnar refactor exists for.
const maxRetainedBytesPerUser = 64

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
// match draw, PII hash, duplicate probe, column append — at 2 × 100 000
// voters, the same shape (two states, 64k chunks) as the 1M-user worlds the
// delivery benchmarks stand on.
func BenchmarkStream(b *testing.B) {
	fl := voter.DefaultGeneratorConfig(demo.StateFL, 51)
	fl.NumVoters = 100_000
	nc := voter.DefaultGeneratorConfig(demo.StateNC, 52)
	nc.NumVoters = 100_000
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
}
