package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/stats"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// recordHashes is what an upload carried when the lab kept registries: the
// PII of a sample's records of one race, hashed in sample order.
func recordHashes(records []voter.Record, race demo.Race) []string {
	var out []string
	for i := range records {
		if r := &records[i]; r.Race == race {
			out = append(out, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
	}
	return out
}

// registryLookalike is E15's seed and baseline uploads as they were drawn
// from registries: the Black records of each state in a random order, then a
// random sample of both states' records.
func registryLookalike(fl, nc *voter.Registry, rng *rand.Rand, seedCount, baseCount int) (seed, base []string) {
	for _, reg := range []*voter.Registry{fl, nc} {
		var black []voter.Record
		for i := range reg.Records {
			if reg.Records[i].Race == demo.RaceBlack {
				black = append(black, reg.Records[i])
			}
		}
		for _, j := range rng.Perm(len(black)) {
			if len(seed) >= seedCount {
				break
			}
			r := &black[j]
			seed = append(seed, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
	}
	all := slices.Concat(fl.Records, nc.Records)
	for _, j := range rng.Perm(len(all)) {
		if len(base) >= baseCount {
			break
		}
		r := &all[j]
		base = append(base, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return seed, base
}

// TestIndexReadersEqualRegistryReaders: every audit reader of a lab's voter
// indexes — the balanced samples' uploads, Table 1, Appendix A's poverty
// medians, matching and Welch test, and E15's seed and baseline — returns
// what the same reader returned over voter.Generate's registries, at the
// test and bench presets' sizes.
func TestIndexReadersEqualRegistryReaders(t *testing.T) {
	for _, scale := range []Scale{ScaleTest, ScaleBench} {
		for _, seed := range []int64{1, 5, 9} {
			t.Run(fmt.Sprintf("%s/seed=%d", scale, seed), func(t *testing.T) {
				gens := []voter.GeneratorConfig{
					voter.DefaultGeneratorConfig(demo.StateFL, seed+1),
					voter.DefaultGeneratorConfig(demo.StateNC, seed+2),
				}
				regs := make([]*voter.Registry, len(gens))
				for i := range gens {
					gens[i].NumVoters = scalePresets[scale].votersPerState
					var err error
					if regs[i], err = voter.Generate(gens[i]); err != nil {
						t.Fatal(err)
					}
				}
				_, indexes, err := population.BuildIndexed(population.Config{Seed: seed + 3}, gens...)
				if err != nil {
					t.Fatal(err)
				}
				l := &Lab{Config: LabConfig{Seed: seed, Scale: scale}, FL: indexes[0], NC: indexes[1]}
				flReg, ncReg := regs[0], regs[1]
				flPoverty := func(r *voter.Record) float64 { return flReg.ZIPPoverty[r.ZIP] }
				ncPoverty := func(r *voter.Record) float64 { return ncReg.ZIPPoverty[r.ZIP] }

				// Balanced samples and their split-audience uploads.
				fl, nc := l.BalancedSamples(scale.PerCell(), seed+50)
				rng := rand.New(rand.NewSource(seed + 50))
				flRecs := voter.StratifiedSample(flReg.Records, scale.PerCell(), rng)
				ncRecs := voter.StratifiedSample(ncReg.Records, scale.PerCell(), rng)
				primary, reversed, err := splitHashes(fl, nc)
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Concat(recordHashes(flRecs, demo.RaceWhite), recordHashes(ncRecs, demo.RaceBlack)); !slices.Equal(primary, want) {
					t.Errorf("primary upload: %d hashes differ from the registry sample's %d", len(primary), len(want))
				}
				if want := slices.Concat(recordHashes(flRecs, demo.RaceBlack), recordHashes(ncRecs, demo.RaceWhite)); !slices.Equal(reversed, want) {
					t.Errorf("reversed upload: %d hashes differ from the registry sample's %d", len(reversed), len(want))
				}

				// Table 1.
				if got, want := Table1(fl, nc), voter.Table1(slices.Concat(flRecs, ncRecs)); !slices.Equal(got, want) {
					t.Errorf("Table 1: %v, registry sample %v", got, want)
				}

				// Appendix A: medians, matching, Welch before and after.
				for _, st := range []struct {
					name      string
					got, want [2]float64
				}{
					{"FL", pair(voter.PovertyStats(fl, l.FL.Poverty)), pair(voter.PovertyStats(flRecs, flPoverty))},
					{"NC", pair(voter.PovertyStats(nc, l.NC.Poverty)), pair(voter.PovertyStats(ncRecs, ncPoverty))},
				} {
					if st.got != st.want {
						t.Errorf("%s poverty medians (white, Black): %v, registry sample %v", st.name, st.got, st.want)
					}
				}
				welch := func(fl, nc []voter.Record) stats.WelchT {
					var white, black []float64
					for _, s := range []struct {
						recs    []voter.Record
						poverty func(*voter.Record) float64
					}{{fl, flPoverty}, {nc, ncPoverty}} {
						for i := range s.recs {
							switch r := &s.recs[i]; r.Race {
							case demo.RaceWhite:
								white = append(white, s.poverty(r))
							case demo.RaceBlack:
								black = append(black, s.poverty(r))
							}
						}
					}
					return stats.WelchTTest(white, black)
				}
				if got, want := povertyWelch(l, fl, nc), welch(flRecs, ncRecs); got != want {
					t.Errorf("pre-matching Welch: %+v, registry sample %+v", got, want)
				}
				rng, recRng := rand.New(rand.NewSource(seed+51)), rand.New(rand.NewSource(seed+51))
				flMatched := voter.MatchPoverty(fl, l.FL.Poverty, rng)
				ncMatched := voter.MatchPoverty(nc, l.NC.Poverty, rng)
				flMatchedRecs := voter.MatchPoverty(flRecs, flPoverty, recRng)
				ncMatchedRecs := voter.MatchPoverty(ncRecs, ncPoverty, recRng)
				for _, race := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
					if !slices.Equal(appendRaceHashes(appendRaceHashes(nil, flMatched, race), ncMatched, race),
						slices.Concat(recordHashes(flMatchedRecs, race), recordHashes(ncMatchedRecs, race))) {
						t.Errorf("poverty-matched %s voters differ from the registry sample's", race)
					}
				}
				if got, want := povertyWelch(l, flMatched, ncMatched), welch(flMatchedRecs, ncMatchedRecs); got != want {
					t.Errorf("post-matching Welch: %+v, registry sample %+v", got, want)
				}

				// E15's uploads, at the evaluation's sizes.
				rng, recRng = rand.New(rand.NewSource(seed+920)), rand.New(rand.NewSource(seed+920))
				seedHashes := l.lookalikeSeed(rng, 1200)
				baseHashes := l.randomVoters(rng, 2*1500)
				wantSeed, wantBase := registryLookalike(flReg, ncReg, recRng, 1200, 2*1500)
				if !slices.Equal(seedHashes, wantSeed) || !slices.Equal(baseHashes, wantBase) {
					t.Errorf("lookalike uploads (%d seed, %d baseline) differ from the registries' (%d, %d)",
						len(seedHashes), len(baseHashes), len(wantSeed), len(wantBase))
				}
			})
		}
	}
}

func pair(a, b float64) [2]float64 { return [2]float64{a, b} }

// maxScaleTestLabHeapMB bounds what a ScaleTest lab keeps alive after
// NewLab. Measured at 2.7 MB (go1.24, amd64) once the lab kept voter
// indexes, 38 bytes a voter, instead of the two registries — Records of six
// strings, ~150 bytes a voter — which put it at 7.1 MB. At ScaleBench the
// same change took it from 14.1 to 5.4 MB.
const maxScaleTestLabHeapMB = 4

// TestLabLiveHeapBudget: the live heap a ScaleTest lab adds — indexes,
// population, trained platform, server — stays under the recorded bound.
func TestLabLiveHeapBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, err := NewLab(LabConfig{Seed: 3, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("a ScaleTest lab keeps %.1f MB live", growth)
	if growth > maxScaleTestLabHeapMB {
		t.Errorf("a ScaleTest lab keeps %.1f MB live, budget %d MB", growth, maxScaleTestLabHeapMB)
	}
	runtime.KeepAlive(l)
}

// TestNoRecordReachableFromLabOrWorld walks the types a Lab and a node.World
// hold — through fields, pointers, slices, arrays and maps — and fails if a
// voter.Record is among them: a world keeps voter indexes, not registries.
func TestNoRecordReachableFromLabOrWorld(t *testing.T) {
	record := reflect.TypeOf(voter.Record{})
	for _, root := range []reflect.Type{reflect.TypeOf(Lab{}), reflect.TypeOf(node.World{})} {
		seen := map[reflect.Type]bool{}
		var walk func(reflect.Type, string)
		walk = func(ty reflect.Type, path string) {
			if seen[ty] {
				return
			}
			seen[ty] = true
			if ty == record {
				t.Errorf("%s holds a voter.Record at %s", root, path)
				return
			}
			switch ty.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array:
				walk(ty.Elem(), path+"[]")
			case reflect.Map:
				walk(ty.Key(), path+"{key}")
				walk(ty.Elem(), path+"{}")
			case reflect.Struct:
				for i := 0; i < ty.NumField(); i++ {
					walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
				}
			}
		}
		walk(root, root.Name())
	}
}
