package node

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
)

// Each flag block declares its flags on fs and returns a function that, once
// fs is parsed, validates them and yields the configuration they describe.
// Call every such function before building a world: a bad flag should cost
// no more than the parse.

// WorldFlags declares -seed, -voters and -logrows, defaulting to def's values;
// the other fields of def pass through.
func WorldFlags(fs *flag.FlagSet, def WorldConfig) func() WorldConfig {
	seed := fs.Int64("seed", def.Seed, "world seed: processes given the same -seed, -voters and -logrows build the same world (adload also seeds its workload from it)")
	voters := fs.Int("voters", def.Voters, "voters per state in the generated registries")
	logRows := fs.Int("logrows", def.LogRows, "engagement-log rows for eAR training")
	return func() WorldConfig {
		def.Seed, def.Voters, def.LogRows = *seed, *voters, *logRows
		return def
	}
}

// FaultFlags declares -fault-rate, -fault-seed and -fault-kinds.
func FaultFlags(fs *flag.FlagSet) func() (faults.Config, error) {
	rate := fs.Float64("fault-rate", 0, "chaos: probability a request (adrouter: an outbound shard RPC) draws an injected fault (0 disables)")
	seed := fs.Int64("fault-seed", 1, "chaos: fault-schedule seed (same seed, same schedule)")
	kinds := fs.String("fault-kinds", "all", "chaos: comma-separated fault kinds (latency,429,5xx,drop,slow) or all")
	return func() (faults.Config, error) {
		k, err := faults.ParseKinds(*kinds)
		return faults.Config{Seed: *seed, Rate: *rate, Kinds: k}, err
	}
}

// PrivacyFlags declares -privacy-k, -privacy-epsilon and -privacy-seed.
func PrivacyFlags(fs *flag.FlagSet) func() (privacy.Config, error) {
	k := fs.Int("privacy-k", 0, "insights privacy: k-anonymity threshold for breakdown cells and minimum audience (0 disables suppression); in a fleet set it on the router, which privatizes the merged report, and leave the shards raw; adload -target records it as the remote policy")
	epsilon := fs.Float64("privacy-epsilon", 0, "insights privacy: DP noise parameter epsilon (0 disables noise; smaller = noisier); same placement as -privacy-k")
	seed := fs.Int64("privacy-seed", 1, "insights privacy: noise-stream seed (same seed, same noise — keep it per-deployment, not per-query)")
	return func() (privacy.Config, error) { return privacy.FromFlags(*k, *epsilon, *seed) }
}

// StackFlags declares the flags of a serving stack: the fault and privacy
// blocks, -store-dir, -fsync and -shed-cap. Without a directory there is no
// store, so -fsync is rejected, and with it every flag the caller names in
// needStore: flags of its own that only tune the store.
func StackFlags(fs *flag.FlagSet, needStore ...string) func() (StackConfig, error) {
	faultsOf, privacyOf := FaultFlags(fs), PrivacyFlags(fs)
	dir := fs.String("store-dir", "", "durable state directory: WAL + snapshots, recovered on boot (empty serves from memory only)")
	fsync := fs.String("fsync", "always", "WAL fsync discipline: always, interval, or none (requires -store-dir)")
	shedCap := fs.Int("shed-cap", marketing.DefaultServerLimits().MaxInFlight, "max in-flight requests before shedding with 429 (0 disables)")
	return func() (StackConfig, error) {
		cfg := StackConfig{ShedCap: *shedCap, Store: store.Options{Dir: *dir}}
		var errs [4]error
		cfg.Faults, errs[0] = faultsOf()
		cfg.Privacy, errs[1] = privacyOf()
		cfg.Store.Fsync, errs[2] = store.ParseFsyncMode(*fsync)
		if *dir == "" {
			errs[3] = RejectSet(fs, "the durable store", "an empty -store-dir", append(needStore, "fsync")...)
		}
		return cfg, errors.Join(errs[:]...)
	}
}

// DrainTimeoutFlag declares -drain-timeout.
func DrainTimeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for draining in-flight requests (must exceed the longest /v1/deliver day)")
}

// RejectSet returns an error if any of the named flags was set on the command
// line: each applies only to scope and would be silently ignored next to with.
func RejectSet(fs *flag.FlagSet, scope, with string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("-%s applies to %s and cannot be combined with %s", f.Name, scope, with)
		}
	})
	return err
}
