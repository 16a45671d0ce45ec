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
	Voters  int // per state
	LogRows int // engagement-log rows the eAR model trains on
	// FLOnly leaves the NC registry out (adload's self-hosted world).
	FLOnly bool
	// Population carries TravelProb and FLActivityBoost; its Seed is derived.
	Population population.Config
	// Behavior is the ground-truth engagement model; zero means the default.
	Behavior population.BehaviorConfig
}

// World is a built world. NC is nil under FLOnly. Pop and Behavior are what
// platform.New needs to train another platform over the same world, as every
// shard of a fleet and every relaunch of one does.
type World struct {
	FL, NC   *voter.Registry
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

// Registry generates one state's voter registry.
func (c WorldConfig) Registry(state demo.State) (*voter.Registry, error) {
	offset := int64(seedFL)
	if state == demo.StateNC {
		offset = seedNC
	}
	cfg := voter.DefaultGeneratorConfig(state, c.Seed+offset)
	cfg.NumVoters = c.Voters
	reg, err := voter.Generate(cfg)
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

// Build generates the registries, matches them into a population and trains
// the platform on it. Whatever can be refused without a world — the platform
// configuration, the behaviour model's — is refused before any of that work:
// at a million voters the registries and the population take about a second.
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
	if w.FL, err = c.Registry(demo.StateFL); err != nil {
		return nil, err
	}
	regs := []*voter.Registry{w.FL}
	if !c.FLOnly {
		if w.NC, err = c.Registry(demo.StateNC); err != nil {
			return nil, err
		}
		regs = append(regs, w.NC)
	}
	popCfg := c.Population
	popCfg.Seed = c.Seed + seedPopulation
	if w.Pop, err = population.Build(popCfg, regs...); err != nil {
		return nil, fmt.Errorf("building population: %w", err)
	}
	if w.Platform, err = platform.New(platCfg, w.Pop, behave); err != nil {
		return nil, fmt.Errorf("building platform: %w", err)
	}
	return w, nil
}

// PIIHashes hashes voter records the way an advertiser does before uploading
// them as an audience.
func PIIHashes(records []voter.Record) []string {
	hashes := make([]string, len(records))
	for i := range hashes {
		r := &records[i]
		hashes[i] = population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
	}
	return hashes
}
