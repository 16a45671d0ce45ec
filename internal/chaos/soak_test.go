package chaos

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/store"
)

// The soaked world: what scripts/chaos_soak.sh has every adplatform child
// build, built once for the package.
var soakWorldCfg = node.WorldConfig{Seed: 7, Voters: 4000, LogRows: 1500}

var soakWorld = sync.OnceValues(func() (*node.World, error) {
	return soakWorldCfg.Build(soakPlatform())
})

func soakPlatform() platform.Config {
	cfg := soakWorldCfg.PlatformConfig()
	cfg.ReviewRejectProb = ReviewReject
	return cfg
}

// simLauncher launches simulated fleets for Soak: the disturbed one durable
// under a temporary directory, the replay's in memory. The coordinator calls
// its shards one at a time, so what a scatter does to the shared clock does
// not depend on goroutine order.
func simLauncher(t testing.TB, shards int) func(durable bool) (Deployment, error) {
	t.Helper()
	world, err := soakWorld()
	if err != nil {
		t.Fatal(err)
	}
	return func(durable bool) (Deployment, error) {
		cfg := FleetConfig{
			World: world, Platform: soakPlatform(), Shards: shards,
			Coordinator: coordinator.Config{MaxFanout: 1},
			// A kill models a process crash, not power loss: what Kill drops is
			// the unflushed buffer, fsync or no fsync.
			Stack: node.StackConfig{Store: store.Options{Fsync: store.FsyncNone}},
		}
		if testing.Verbose() {
			cfg.Logf = t.Logf
		}
		if durable {
			cfg.Dir = t.TempDir()
		}
		return NewFleet(cfg)
	}
}

func soakHashes(t testing.TB) []string {
	t.Helper()
	world, err := soakWorld()
	if err != nil {
		t.Fatal(err)
	}
	return node.PIIHashes(world.FL.Entries[:600])
}

const soakTicks = 24

// soakSeed runs one seeded 24-tick schedule over a simulated fleet.
func soakSeed(t testing.TB, seed int64, shards int) (*SoakResult, error) {
	t.Helper()
	s, err := NewSchedule(Config{Seed: seed, Shards: shards, Rate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SoakConfig{Schedule: s, Ticks: soakTicks, Hashes: soakHashes(t)}
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	return Soak(context.Background(), cfg, simLauncher(t, shards))
}

// TestSoakSeeds is the acceptance sweep: seeded 24-tick schedules of kills,
// pauses, slowed and partitioned links over 2- and 3-shard fleets whose ad
// review rejects a quarter of the ads, so the workload appeals. Every one
// must end healed, with the digest of the undisturbed replay, every
// acknowledged create present once and nothing refused untyped — Soak returns
// an error otherwise. A failing seed is shrunk to the events it needs and
// printed as the literal to pin.
func TestSoakSeeds(t *testing.T) {
	const seeds = sweepSeeds
	var mu sync.Mutex
	kinds, appeals, refused, ran := map[Action]int{}, 0, 0, 0
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= seeds; seed++ {
			shards := 2 + int(seed%2)
			t.Run(fmt.Sprintf("seed=%d,shards=%d", seed, shards), func(t *testing.T) {
				t.Parallel() // a soak shares nothing but the read-only world
				res, err := soakSeed(t, seed, shards)
				if err != nil {
					t.Fatalf("%v\nshrunk to:\n%s", err, shrunkLiteral(t, seed, shards))
				}
				mu.Lock()
				defer mu.Unlock()
				ran++
				for _, e := range res.Events {
					kinds[e.Action]++
				}
				for _, op := range res.Ops {
					if op.Kind == "appeal" {
						appeals++
					}
				}
				refused += res.Refused
			})
		}
	})
	if ran < seeds {
		return // a seed failed, or -run picked some: the sweep's coverage is not in question
	}
	for _, a := range AllActions() {
		if kinds[a] == 0 {
			t.Errorf("%d seeds never drew a %s", seeds, a)
		}
	}
	if appeals == 0 {
		t.Error("no schedule's workload appealed a rejected ad")
	}
	t.Logf("%d schedules: disturbances %v, %d appeals acknowledged, %d operations refused (typed)", seeds, kinds, appeals, refused)
}

// shrink reduces a failing event list greedily: it drops one event at a time
// for as long as fails still reports a failure without it. What is left is a
// list every event of which is needed.
func shrink(events []Event, fails func([]Event) bool) []Event {
	for i := 0; i < len(events); {
		if trial := slices.Delete(slices.Clone(events), i, i+1); fails(trial) {
			events = trial
		} else {
			i++
		}
	}
	return events
}

// shrunkLiteral shrinks a failing seed's event list and prints it as Go
// source: the argument of ScheduleOf in a pinned regression test.
func shrunkLiteral(t testing.TB, seed int64, shards int) string {
	s, err := NewSchedule(Config{Seed: seed, Shards: shards, Rate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", shrink(s.Events(soakTicks), func(events []Event) bool {
		return soakEvents(t, shards, events) != nil
	}))
}

// soakEvents soaks a simulated fleet under an explicit event list.
func soakEvents(t testing.TB, shards int, events []Event) error {
	s, err := ScheduleOf(shards, events)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Soak(context.Background(), SoakConfig{Schedule: s, Ticks: soakTicks, Hashes: soakHashes(t)}, simLauncher(t, shards))
	return err
}

// Same world seed and chaos seed, same run: the events applied, the log of
// acknowledged operations and the digest are equal twice over.
func TestSoakReproducible(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		a, err := soakSeed(t, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := soakSeed(t, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("chaos seed %d ran differently twice:\n%s\n%s", seed, describe(a), describe(b))
		}
	}
}

func describe(r *SoakResult) string {
	return fmt.Sprintf("events %+v\nops %+v\nrefused %d digest %s", r.Events, r.Ops, r.Refused, r.Digest)
}

// TestSoakPinnedRegressions replays, as explicit event lists, the schedules
// the seed sweep found failing before the review cursor was durable and
// replicated — each shrunk by Shrink to the one event it needs, on the
// 2-shard fleet. At the parent of this change chaos seed 2 failed on the
// first: the killed shard came back with its review stream at the start while
// its peer was draws in, answered the next replayed appeal differently, and
// never passed the rejoin gate. Chaos seed 18 failed on the second once the
// cursor was in the digest: an appeal the shard missed during the outage had
// left its ad rejected, the router's catch-up probe took that for "already
// applied" and skipped it, and the shard rejoined one draw behind.
func TestSoakPinnedRegressions(t *testing.T) {
	for name, events := range map[string][]Event{
		"review cursor lost by a restart":        {{Tick: 8, Shard: 0, Action: ActKill}},
		"appeal that changed nothing is skipped": {{Tick: 16, Shard: 0, Action: ActPartition, Ticks: 3}},
	} {
		if err := soakEvents(t, 2, events); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSoakSeed1MatchesRealProcesses ties the simulation to the one run CI
// makes over real processes: scripts/chaos_soak.sh soaks two fleets of
// adplatform children under this schedule, world and workload, and a run of
// it in which nothing is refused prints this digest. The simulated kill —
// drop the stack, recover the WAL — lands the fleet on the bytes a real
// kill -9 does.
func TestSoakSeed1MatchesRealProcesses(t *testing.T) {
	const realRun = "0bacedc65041df81aab84b0af5dcd63df27b4cec10fb79ac04b8717e848f0c8d"
	res, err := soakSeed(t, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refused != 0 || res.Digest != realRun {
		t.Errorf("chaos seed 1 over 2 simulated shards: %d refused, digest %s; the real-process soak refused none and printed %s",
			res.Refused, res.Digest, realRun)
	}
}

// TestSoakSeed16RefusesNothing pins the schedule a second failure detector
// hurt most: shard 1 partitioned at tick 0, shard 0 at tick 4, shard 1
// paused at tick 16 and slowed at tick 20. When each marketing.Client kept a
// circuit breaker of its own, the router's clients refused shard 1's rejoin
// handshakes after its partition healed, so the fleet was whole-out at tick 4,
// and the advertiser's client went on refusing locally after both shards were
// back. With the health model the only judge of liveness, every operation of
// the schedule is acknowledged.
func TestSoakSeed16RefusesNothing(t *testing.T) {
	res, err := soakSeed(t, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refused != 0 || len(res.Ops) != 30 {
		t.Errorf("chaos seed 16 over 2 simulated shards: %d refused, %d acknowledged; want 0 refused and all 30 acknowledged\n%s",
			res.Refused, len(res.Ops), describe(res))
	}
}
