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
// the other fields of def pass through. A -voters or -logrows below one is
// refused (the platform refuses fewer than 1000 log rows when the world is
// built).
func WorldFlags(fs *flag.FlagSet, def WorldConfig) func() (WorldConfig, error) {
	seed := fs.Int64("seed", def.Seed, "world seed: processes given the same -seed, -voters and -logrows build the same world")
	voters := fs.Int("voters", def.Voters, "voters per state in the generated registries")
	logRows := fs.Int("logrows", def.LogRows, "engagement-log rows for eAR training")
	return func() (WorldConfig, error) {
		def.Seed, def.Voters, def.LogRows = *seed, *voters, *logRows
		return def, errors.Join(Positive("voters", def.Voters), Positive("logrows", def.LogRows))
	}
}

// Positive refuses a count below one, under its flag's name.
func Positive(flag string, n int) error {
	if n <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", flag, n)
	}
	return nil
}

// NonNegative refuses a negative count, under its flag's name: a flag whose
// zero has a meaning of its own.
func NonNegative(flag string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s must not be negative, got %d", flag, n)
	}
	return nil
}

// FaultFlags declares -fault-rate, -fault-seed and -fault-kinds: faults on the
// process's own outbound requests (see FaultTransport).
func FaultFlags(fs *flag.FlagSet) func() (faults.Config, error) {
	rate := fs.Float64("fault-rate", 0, "chaos: probability an outbound request (adload: the workload's, adrouter: a shard RPC) draws a fault injected on the client side (0 disables)")
	seed := fs.Int64("fault-seed", 1, "chaos: fault-schedule seed (same seed, same schedule)")
	kinds := fs.String("fault-kinds", "all", "chaos: comma-separated fault kinds (latency,429,5xx,drop,slow) or all")
	return func() (faults.Config, error) {
		k, err := faults.ParseKinds(*kinds)
		return faults.Config{Seed: *seed, Rate: *rate, Kinds: k}, errors.Join(err, faults.Schedule{Rate: *rate}.Validate())
	}
}

// PrivacyFlags declares -privacy-k, -privacy-epsilon and -privacy-seed.
func PrivacyFlags(fs *flag.FlagSet) func() (privacy.Config, error) {
	k := fs.Int("privacy-k", 0, "insights privacy: k-anonymity threshold for breakdown cells and minimum audience (0 disables suppression); in a fleet set it on the router, which privatizes the merged report, and leave the shards raw")
	epsilon := fs.Float64("privacy-epsilon", 0, "insights privacy: DP noise parameter epsilon (0 disables noise; smaller = noisier); same placement as -privacy-k")
	seed := fs.Int64("privacy-seed", 1, "insights privacy: noise-stream seed (same seed, same noise — keep it per-deployment, not per-query)")
	return func() (privacy.Config, error) { return privacy.FromFlags(*k, *epsilon, *seed) }
}

// StackFlags declares the flags of a serving stack: the privacy block,
// -store-dir, -fsync, -snapshot-every and -shed-cap. Without a directory
// there is no store, so -fsync and -snapshot-every are rejected.
func StackFlags(fs *flag.FlagSet) func() (StackConfig, error) {
	privacyOf := PrivacyFlags(fs)
	dir := fs.String("store-dir", "", "durable state directory: WAL + snapshots, recovered on boot (empty serves from memory only)")
	fsync := fs.String("fsync", "always", "WAL fsync discipline: always, interval, or none (requires -store-dir)")
	snapshotEvery := fs.Int("snapshot-every", 5000, "write a snapshot and compact the WAL every N records (0 disables automatic snapshots; requires -store-dir)")
	shedCap := fs.Int("shed-cap", marketing.DefaultServerLimits().MaxInFlight, "max in-flight requests before shedding with 429 (0 disables)")
	return func() (StackConfig, error) {
		cfg := StackConfig{ShedCap: *shedCap, Store: store.Options{Dir: *dir, SnapshotEvery: *snapshotEvery}}
		var errs [5]error
		cfg.Privacy, errs[0] = privacyOf()
		cfg.Store.Fsync, errs[1] = store.ParseFsyncMode(*fsync)
		if *dir == "" {
			errs[2] = rejectSet(fs, "the durable store", "an empty -store-dir", "fsync", "snapshot-every")
		}
		errs[3] = NonNegative("shed-cap", *shedCap)
		errs[4] = NonNegative("snapshot-every", *snapshotEvery)
		return cfg, errors.Join(errs[:]...)
	}
}

// DrainTimeoutFlag declares -drain-timeout.
func DrainTimeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for draining in-flight requests (must exceed the longest /v1/deliver day)")
}

// rejectSet returns an error if any of the named flags was set on the command
// line: each applies only to scope and would be silently ignored next to with.
func rejectSet(fs *flag.FlagSet, scope, with string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("-%s applies to %s and cannot be combined with %s", f.Name, scope, with)
		}
	})
	return err
}
