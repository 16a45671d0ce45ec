package node

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/platform"
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

	// A client that regenerates a registry from the same config reaches every
	// user of that state, and no one else.
	matched := 0
	for _, state := range []demo.State{demo.StateFL, demo.StateNC} {
		reg, err := cfg.Registry(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, hash := range PIIHashes(reg.Records) {
			if u, ok := w.Pop.LookupPII(hash); ok {
				matched++
				if u.State() != state || u.PIIKey() != hash {
					t.Fatalf("%s hash %s resolved to a %s user with key %s", state, hash, u.State(), u.PIIKey())
				}
			}
		}
	}
	if matched != w.Pop.Len() {
		t.Errorf("registry hashes reach %d of %d users", matched, w.Pop.Len())
	}

	flOnly := cfg
	flOnly.FLOnly = true
	if w, err = flOnly.Build(flOnly.PlatformConfig()); err != nil {
		t.Fatal(err)
	}
	if w.NC != nil || w.Pop.Len() == 0 || w.Pop.Len() >= wantUsers {
		t.Errorf("FL-only world: NC %v, %d users", w.NC != nil, w.Pop.Len())
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
	for name, edit := range map[string]func(*platform.Config){
		"shard count": func(c *platform.Config) { c.DeliveryWorkers = 100 },
		"log rows":    func(c *platform.Config) { c.Training.LogRows = 10 },
	} {
		cfg := wc.PlatformConfig()
		edit(&cfg)
		// The platform's sentinels are unexported; the innermost error of what
		// Validate returns is the sentinel.
		cause := cfg.Validate()
		for next := cause; next != nil; next = errors.Unwrap(next) {
			cause = next
		}
		if cause == nil {
			t.Fatalf("%s: Validate accepts the configuration", name)
		}
		if _, err := wc.Build(cfg); !errors.Is(err, cause) {
			t.Errorf("%s: Build returned %v, want %v", name, err, cause)
		}
	}
	wc.Behavior = population.BehaviorConfig{BaseCTR: 0.9}
	if _, err := wc.Build(wc.PlatformConfig()); err == nil || !strings.Contains(err.Error(), "behaviour model") {
		t.Errorf("BaseCTR 0.9 and zero voters: got %v, want the behaviour model's refusal", err)
	}
}
