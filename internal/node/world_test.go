package node

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// TestWorldDerivationPinned pins what a (seed, voters) pair yields. Processes
// agree on a world only through this derivation, so an edit to the seed
// arithmetic, the stage order or the generators must fail here, not first as
// an audience that matches nobody in a fleet.
func TestWorldDerivationPinned(t *testing.T) {
	cfg := WorldConfig{Seed: 7, Voters: 1500, LogRows: 1500}
	w, err := cfg.Build(cfg.PlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	const wantUsers, wantDigest = 1925, "caf4e75f815cfabd"
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write([]byte(w.Pop.View(i).PIIKey()))
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; w.Pop.Len() != wantUsers || got != wantDigest {
		t.Errorf("world (seed 7, 1500 voters): %d users, first-64 PII digest %s; want %d, %s",
			w.Pop.Len(), got, wantUsers, wantDigest)
	}

	// The world indexes every voter of both registries, and a client that
	// regenerates a registry from the same config hashes what the index
	// holds, voter for voter. Those hashes reach every user of that state,
	// and no one else.
	matched := 0
	for _, state := range []demo.State{demo.StateFL, demo.StateNC} {
		reg, err := cfg.Registry(state)
		if err != nil {
			t.Fatal(err)
		}
		ix := w.FL
		if state == demo.StateNC {
			ix = w.NC
		}
		if !slices.Equal(PIIHashes(ix.Entries), RecordHashes(reg.Records)) {
			t.Fatalf("%s: the world's index does not hold the registry's hashes", state)
		}
		keys := make([]population.PIIKey, len(ix.Entries))
		for i := range keys {
			keys[i] = ix.Entries[i].Digest
		}
		for _, id := range w.Pop.MatchPII(keys) {
			if u := w.Pop.View(int(id)); u.State() != state {
				t.Fatalf("%s voter matched %s user %d", state, u.State(), id)
			}
			matched++
		}
	}
	if matched != w.Pop.Len() {
		t.Errorf("registry hashes reach %d of %d users", matched, w.Pop.Len())
	}
}

// TestBuildRefusesConfigBeforeGenerating: a platform or behaviour setting New
// would refuse is refused before the registries and the population are
// generated. No timer is needed to see the order: a world of zero voters
// cannot be generated either, so the error names whichever check ran first.
func TestBuildRefusesConfigBeforeGenerating(t *testing.T) {
	wc := WorldConfig{Seed: 7, Voters: 0, LogRows: 1500}
	if _, err := wc.Build(wc.PlatformConfig()); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("zero voters with a valid platform: got %v, want the registry's refusal", err)
	}
	cfg := wc.PlatformConfig()
	cfg.Training.LogRows = 10
	// The platform's sentinels are unexported; the innermost error of what
	// Validate returns is the sentinel.
	cause := cfg.Validate()
	for next := cause; next != nil; next = errors.Unwrap(next) {
		cause = next
	}
	if cause == nil {
		t.Fatal("10 log rows: Validate accepts the configuration")
	}
	if _, err := wc.Build(cfg); !errors.Is(err, cause) {
		t.Errorf("10 log rows: Build returned %v, want %v", err, cause)
	}
	wc.Behavior = population.BehaviorConfig{BaseCTR: 0.9}
	if _, err := wc.Build(wc.PlatformConfig()); err == nil || !strings.Contains(err.Error(), "behaviour model") {
		t.Errorf("BaseCTR 0.9 and zero voters: got %v, want the behaviour model's refusal", err)
	}
}

// BenchmarkWorldBuild times what a world's set-up spends before training
// its platform: the one pass that draws, hashes and indexes every voter of
// both states and matches them into a population, at the bench-scale lab's
// 40 000 voters per state. Training is platform.New's benchmark.
func BenchmarkWorldBuild(b *testing.B) {
	cfg := WorldConfig{Seed: 11, Voters: 40_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w World
		if err := cfg.populate(&w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*cfg.Voters), "ns/voter")
}
