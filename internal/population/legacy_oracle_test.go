package population

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// The legacy struct-of-structs population builder, kept verbatim as a test
// oracle. This is the pre-columnar implementation (one User struct per
// account, hex PII keys, a map index), and the differential suite below pins
// the columnar Build and Stream paths to its exact output: same accepted
// voters in the same order, same RNG-derived activity values, same PII keys.
// Do not "modernize" this code — its value is that it does not change.

type legacyUser struct {
	ID         int
	State      demo.State
	ZIP        string
	Age        int
	Gender     demo.Gender
	Race       demo.Race
	Activity   float64
	PIIKey     string
	TravelProb float64
}

func legacyBuild(cfg Config, registries ...*voter.Registry) []legacyUser {
	if err := cfg.resolve(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var users []legacyUser
	byPII := map[string]int{}
	id := 0
	for _, reg := range registries {
		for i := range reg.Records {
			rec := &reg.Records[i]
			if rng.Float64() > cfg.BaseMatchRate*matchRateFactor(rec) {
				continue
			}
			activity := meanSessions * activityFactor(rec) * lognormalish(rng.NormFloat64())
			if rec.State == demo.StateFL {
				activity *= cfg.FLActivityBoost
			}
			u := legacyUser{
				ID:         id,
				State:      rec.State,
				ZIP:        rec.ZIP,
				Age:        rec.Age(),
				Gender:     rec.Gender,
				Race:       rec.Race,
				Activity:   activity,
				PIIKey:     HashPII(rec.FirstName, rec.LastName, rec.Address, rec.ZIP),
				TravelProb: cfg.TravelProb,
			}
			if _, dup := byPII[u.PIIKey]; dup {
				continue
			}
			byPII[u.PIIKey] = id
			users = append(users, u)
			id++
		}
	}
	return users
}

// diffSeeds are the configurations the differential suite runs: three
// distinct (registry seed, build seed) pairs, one with a non-default match
// rate and FL boost so the adjusted code paths are exercised too.
var diffSeeds = []struct {
	name string
	reg  int64
	cfg  Config
}{
	{name: "defaults", reg: 11, cfg: Config{Seed: 101}},
	{name: "low_match", reg: 12, cfg: Config{Seed: 102, BaseMatchRate: 0.4}},
	{name: "fl_boost", reg: 13, cfg: Config{Seed: 103, FLActivityBoost: 1.5, TravelProb: 0.01}},
}

func diffGenConfigs(regSeed int64) []voter.GeneratorConfig {
	fl := voter.DefaultGeneratorConfig(demo.StateFL, regSeed)
	fl.NumVoters = 4000
	nc := voter.DefaultGeneratorConfig(demo.StateNC, regSeed+1)
	nc.NumVoters = 3000
	return []voter.GeneratorConfig{fl, nc}
}

func diffRegistries(t *testing.T, regSeed int64) []*voter.Registry {
	t.Helper()
	var regs []*voter.Registry
	for _, gc := range diffGenConfigs(regSeed) {
		reg, err := voter.Generate(gc)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
	}
	return regs
}

// assertMatchesLegacy compares every user field of a columnar population to
// the legacy oracle's output.
func assertMatchesLegacy(t *testing.T, pop *Population, want []legacyUser) {
	t.Helper()
	if pop.Len() != len(want) {
		t.Fatalf("population size %d, legacy oracle %d", pop.Len(), len(want))
	}
	for i := range want {
		u, w := pop.View(i), &want[i]
		if u.ID() != w.ID || u.State() != w.State || u.ZIP() != w.ZIP ||
			u.Age() != w.Age || u.Gender() != w.Gender || u.Race() != w.Race ||
			u.Activity() != w.Activity || u.PIIKey() != w.PIIKey ||
			u.TravelProb() != w.TravelProb {
			t.Fatalf("user %d diverged from legacy oracle:\n got {id:%d st:%v zip:%q age:%d g:%v r:%v act:%v travel:%v pii:%s}\nwant %+v",
				i, u.ID(), u.State(), u.ZIP(), u.Age(), u.Gender(), u.Race(), u.Activity(), u.TravelProb(), u.PIIKey(), *w)
		}
		if got, ok := pop.LookupPII(w.PIIKey); !ok || got.ID() != w.ID {
			t.Fatalf("user %d not findable by its legacy PII key", i)
		}
	}
}

// TestBuildMatchesLegacyOracle pins the columnar Build to the legacy struct
// builder field for field at three seeds.
func TestBuildMatchesLegacyOracle(t *testing.T) {
	for _, tc := range diffSeeds {
		t.Run(tc.name, func(t *testing.T) {
			regs := diffRegistries(t, tc.reg)
			want := legacyBuild(tc.cfg, regs...)
			pop, err := Build(tc.cfg, regs...)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesLegacy(t, pop, want)
		})
	}
}

// TestStreamMatchesLegacyOracle pins the streaming construction path — which
// never materializes a registry or a voter slice — to the same legacy
// output.
func TestStreamMatchesLegacyOracle(t *testing.T) {
	for _, tc := range diffSeeds {
		t.Run(tc.name, func(t *testing.T) {
			want := legacyBuild(tc.cfg, diffRegistries(t, tc.reg)...)
			pop, err := Stream(tc.cfg, 512, diffGenConfigs(tc.reg)...)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesLegacy(t, pop, want)
		})
	}
}

// TestBuildIndexedMatchesLegacyOracle pins the audit's world build — one
// pass that hashes every voter and indexes it — to the same legacy output,
// and each index to its registry: entry i carries record i's digest and
// cell.
func TestBuildIndexedMatchesLegacyOracle(t *testing.T) {
	for _, tc := range diffSeeds {
		t.Run(tc.name, func(t *testing.T) {
			regs := diffRegistries(t, tc.reg)
			pop, indexes, err := BuildIndexed(tc.cfg, diffGenConfigs(tc.reg)...)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesLegacy(t, pop, legacyBuild(tc.cfg, regs...))
			if len(indexes) != len(regs) {
				t.Fatalf("%d indexes for %d registries", len(indexes), len(regs))
			}
			for k, reg := range regs {
				ix := indexes[k]
				if ix.State != reg.State || len(ix.Entries) != len(reg.Records) {
					t.Fatalf("index %d: %d %v entries, registry of %d %v", k, len(ix.Entries), ix.State, len(reg.Records), reg.State)
				}
				for i := range reg.Records {
					r, e := &reg.Records[i], &ix.Entries[i]
					if e.Hash() != HashPII(r.FirstName, r.LastName, r.Address, r.ZIP) || e.Cell() != r.Cell() {
						t.Fatalf("%v voter %d: entry %+v is not record %+v", reg.State, i, e, r)
					}
				}
			}
		})
	}
}

// TestZIPColumnsMatchBuild: Stream and BuildIndexed intern a draw's ZIP by
// its position in the generator's table, Build interns a record's by its
// code. Positions may share a code, so the generator builds must still
// intern by code on a position's first kept row: their ZIP dictionaries and
// columns are Build's byte for byte. The worlds here do repeat codes across
// positions, or the check would mean nothing.
func TestZIPColumnsMatchBuild(t *testing.T) {
	shared := false
	for _, tc := range diffSeeds {
		regs := diffRegistries(t, tc.reg)
		want, err := Build(tc.cfg, regs...)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := Stream(tc.cfg, 512, diffGenConfigs(tc.reg)...)
		if err != nil {
			t.Fatal(err)
		}
		indexed, indexes, err := BuildIndexed(tc.cfg, diffGenConfigs(tc.reg)...)
		if err != nil {
			t.Fatal(err)
		}
		for name, pop := range map[string]*Population{"Stream": streamed, "BuildIndexed": indexed} {
			if !slices.Equal(pop.cols.zipDict, want.cols.zipDict) || !slices.Equal(pop.cols.zip, want.cols.zip) {
				t.Errorf("%s: %s's ZIP dictionary %q and column differ from Build's %q", tc.name, name, pop.cols.zipDict, want.cols.zipDict)
			}
		}
		for k, reg := range regs {
			position := map[string]uint16{}
			for i := range reg.Records {
				code, at := reg.Records[i].ZIP, indexes[k].Entries[i].ZIP
				if first, ok := position[code]; ok && first != at {
					shared = true
				}
				position[code] = at
			}
		}
	}
	if !shared {
		t.Fatal("no ZIP code is shared by two generator positions in these worlds")
	}
}

// TestGeneratorMatchesGenerate pins the record stream itself: NewGenerator+
// Next must emit registries byte-identical to the one-shot Generate.
func TestGeneratorMatchesGenerate(t *testing.T) {
	for _, gc := range diffGenConfigs(17) {
		reg, err := voter.Generate(gc)
		if err != nil {
			t.Fatal(err)
		}
		g, err := voter.NewGenerator(gc)
		if err != nil {
			t.Fatal(err)
		}
		var rec voter.Record
		n := 0
		for g.Next(&rec) {
			if n >= len(reg.Records) {
				t.Fatalf("generator emitted more than %d records", len(reg.Records))
			}
			if rec != reg.Records[n] {
				t.Fatalf("record %d diverged:\n got %+v\nwant %+v", n, rec, reg.Records[n])
			}
			n++
		}
		if n != len(reg.Records) {
			t.Fatalf("generator emitted %d records, Generate %d", n, len(reg.Records))
		}
	}
}
