// Package node holds the decisions every process of the serving tier must
// take the same way: how a world is derived from its seed, the order a
// serving stack is assembled in, how a server drains on a signal, and the
// flags the binaries share. cmd/adplatform, cmd/adrouter, cmd/adload,
// cmd/adchaos and core.NewLab call it; none of them repeats it.
package node

import (
	"fmt"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// WorldConfig names a synthetic world. Two processes given equal values
// build equal worlds, which is what lets an audience hashed by one match
// users held by another.
type WorldConfig struct {
	Seed    int64
	Voters  int // per state, at least 1
	LogRows int // engagement-log rows the eAR model trains on, at least 1000
	// Population carries TravelProb and FLActivityBoost; its Seed is derived.
	Population population.Config
	// Behavior is the ground-truth engagement model; zero means the default.
	Behavior population.BehaviorConfig
}

// World is a built world. Pop and Behavior are what
// platform.New needs to build another platform over the same world, as every
// shard of a fleet and every relaunch of one does; with the same
// platform.Config it shares the models World.Platform was trained with.
type World struct {
	FL, NC   *voter.Index
	Pop      *population.Population
	Behavior *population.Behavior
	Platform *platform.Platform
}

// The derivation: every stage draws from its own stream, offset from the
// world seed. Changing an offset changes every PII key and every digest.
const (
	seedFL = iota + 1
	seedNC
	seedPopulation
	seedPlatform
)

// generator configures the generator of one state's voter registry.
func (c WorldConfig) generator(state demo.State) voter.GeneratorConfig {
	offset := int64(seedFL)
	if state == demo.StateNC {
		offset = seedNC
	}
	cfg := voter.DefaultGeneratorConfig(state, c.Seed+offset)
	cfg.NumVoters = c.Voters
	return cfg
}

// Registry generates one state's voter registry: the records Build indexed,
// in the same order, for a caller that writes or parses voter extracts.
func (c WorldConfig) Registry(state demo.State) (*voter.Registry, error) {
	reg, err := voter.Generate(c.generator(state))
	if err != nil {
		return nil, fmt.Errorf("generating %s registry: %w", state, err)
	}
	return reg, nil
}

// PlatformConfig is the platform's default configuration for this world, for
// the caller to adjust before Build.
func (c WorldConfig) PlatformConfig() platform.Config {
	cfg := platform.DefaultConfig(c.Seed + seedPlatform)
	cfg.Training.LogRows = c.LogRows
	return cfg
}

// Build draws the registries, matching them into a population and indexing
// their voters in one pass, and trains the platform on the population.
// Whatever can be refused without a world — the platform configuration, the
// behaviour model's — is refused before any of that work: at a million
// voters the population and the indexes take about a second.
func (c WorldConfig) Build(platCfg platform.Config) (*World, error) {
	if err := platCfg.Validate(); err != nil {
		return nil, fmt.Errorf("platform configuration: %w", err)
	}
	behaveCfg := c.Behavior
	if behaveCfg == (population.BehaviorConfig{}) {
		behaveCfg = population.DefaultBehaviorConfig()
	}
	behave, err := population.NewBehavior(behaveCfg)
	if err != nil {
		return nil, fmt.Errorf("behaviour model: %w", err)
	}
	w := &World{Behavior: behave}
	if err := c.populate(w); err != nil {
		return nil, err
	}
	if w.Platform, err = platform.New(platCfg, w.Pop, behave); err != nil {
		return nil, fmt.Errorf("building platform: %w", err)
	}
	return w, nil
}

// populate draws the world's voters into its population and its indexes.
func (c WorldConfig) populate(w *World) error {
	popCfg := c.Population
	popCfg.Seed = c.Seed + seedPopulation
	pop, indexes, err := population.BuildIndexed(popCfg, c.generator(demo.StateFL), c.generator(demo.StateNC))
	if err != nil {
		return fmt.Errorf("building population: %w", err)
	}
	w.Pop, w.FL, w.NC = pop, indexes[0], indexes[1]
	return nil
}

// PIIHashes returns the hashes an advertiser uploads as an audience of the
// given voters: their index entries' digests, hex-encoded.
func PIIHashes(entries []voter.Entry) []string {
	hashes := make([]string, len(entries))
	for i := range hashes {
		hashes[i] = entries[i].Hash()
	}
	return hashes
}

// RecordHashes hashes voter records the way an advertiser does before
// uploading them as an audience: the client side of a voter extract.
func RecordHashes(records []voter.Record) []string {
	hashes := make([]string, len(records))
	for i := range hashes {
		r := &records[i]
		hashes[i] = population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
	}
	return hashes
}
