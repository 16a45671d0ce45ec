package coordinator_test

// The supervision pass over the simulated fleet, its clock in the test's
// hands: when a shard is scored down, when its process is relaunched, when
// it rejoins, and what a pass does while a delivery day holds the fleet.

import (
	"context"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
)

// superviseEvery sets the supervision timing of a fleet.
func superviseEvery(after, backoff time.Duration) func(*chaos.FleetConfig) {
	return func(cfg *chaos.FleetConfig) {
		cfg.Coordinator.ProbeInterval = time.Second
		cfg.Coordinator.RelaunchAfter = after
		cfg.Coordinator.RelaunchBackoff = backoff
	}
}

// counter reads one counter of the fleet's registry.
func counter(f *chaos.Fleet, name string) int64 { return f.Reg.Snapshot().Counters[name] }

// state reads one shard's health state.
func state(f *chaos.Fleet, shard int) coordinator.State { return f.Coord.States()[shard] }

// A dead shard is scored down after DownAfter failed passes, relaunched once
// it has been down RelaunchAfter and not before, and rejoined by the pass
// after it answers again — the full lifecycle, pass by pass.
func TestSupervisionLifecycle(t *testing.T) {
	f := launch(t, 2, superviseEvery(3*time.Second, 5*time.Second))
	ctx := context.Background()

	f.Coord.Step(ctx)
	if got := f.Coord.States(); got[0] != coordinator.Healthy || got[1] != coordinator.Healthy {
		t.Fatalf("healthy fleet scored %v", got)
	}

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < coordinator.DownAfter; i++ {
		if i > 0 {
			f.Clock.Sleep(time.Second)
		}
		if got := state(f, 1); got == coordinator.Down {
			t.Fatalf("down after %d failed probes, want %d", i, coordinator.DownAfter)
		}
		f.Coord.Step(ctx)
	}
	if got := state(f, 1); got != coordinator.Down || got.InService() {
		t.Fatalf("after %d failed probes: %v, want down and out of service", coordinator.DownAfter, got)
	}

	// Inside the grace period a pass probes and leaves the process alone: a
	// pause or a partition could clear on its own.
	f.Clock.Sleep(time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, coordinator.MetricRelaunches); got != 0 {
		t.Fatalf("%d relaunches inside the grace period", got)
	}

	// Past it the pass relaunches the shard, and the next pass finds it
	// answering, marks it recovering and rejoins it.
	f.Clock.Sleep(3 * time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, coordinator.MetricRelaunches); got != 1 {
		t.Fatalf("%d relaunches past the grace period, want 1", got)
	}
	if got := state(f, 1); got != coordinator.Down {
		t.Fatalf("relaunching pass left shard 1 %v, want down until the next pass", got)
	}
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("after relaunch and rejoin: %v, want healthy", got)
	}
	if got := counter(f, coordinator.MetricRejoins); got != 1 {
		t.Fatalf("%d rejoins counted, want 1", got)
	}
}

// Relaunches of one shard are RelaunchBackoff apart: a partition outlives a
// relaunch, so the shard stays silent through it. A refused rejoin handshake
// is one rejoin failure, and a recovering shard that goes silent falls back
// to down.
func TestSupervisionRelaunchBackoff(t *testing.T) {
	var refuse atomic.Bool
	f := launch(t, 2, both(superviseEvery(time.Second, 10*time.Second), wrapShard(1, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if refuse.Load() && r.URL.Path == "/v1/shard/status" {
				http.Error(w, "handshake refused", http.StatusForbidden)
				return
			}
			next.ServeHTTP(w, r)
		})
	})))
	ctx := context.Background()

	f.SetPartition(1, true)
	for i := 0; i < 8; i++ {
		f.Coord.Step(ctx)
		f.Clock.Sleep(time.Second)
	}
	if got := counter(f, coordinator.MetricRelaunches); got != 1 {
		t.Fatalf("%d relaunches within the backoff window, want exactly 1", got)
	}
	f.Clock.Sleep(10 * time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, coordinator.MetricRelaunches); got != 2 {
		t.Fatalf("%d relaunches after the backoff, want 2", got)
	}

	refuse.Store(true)
	f.SetPartition(1, false)
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Recovering {
		t.Fatalf("refused handshake left shard 1 %v, want recovering", got)
	}
	if got := counter(f, coordinator.MetricRejoinFailures); got != 1 {
		t.Fatalf("refused handshake counted %d times in %s, want once", got, coordinator.MetricRejoinFailures)
	}

	f.SetPartition(1, true)
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Down {
		t.Fatalf("recovering shard that went silent: %v, want down", got)
	}

	refuse.Store(false)
	f.SetPartition(1, false)
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("healed shard: %v, want healthy", got)
	}
}

// A pass that runs while a delivery day holds the fleet mutex skips the
// rejoin: the shard that answers stays recovering and no failure is counted.
// The first pass after the day rejoins it.
func TestSupervisionSkipsRejoinWhileDayHoldsFleet(t *testing.T) {
	ctx := context.Background()
	var f *chaos.Fleet
	var during atomic.Bool
	f = launch(t, 2, wrapShard(0, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard/delivery/begin" && during.CompareAndSwap(false, true) {
				// Deliver holds the fleet mutex for the whole day.
				f.Coord.MarkDown(1)
				f.Coord.Step(ctx)
			}
			next.ServeHTTP(w, r)
		})
	}))
	ids := setupAccount(t, f.Client(), 1)
	if err := f.Coord.Deliver(ctx, ids, 9650); err != nil {
		t.Fatal(err)
	}
	if !during.Load() {
		t.Fatal("no pass ran during the day")
	}
	if got := state(f, 1); got != coordinator.Recovering {
		t.Fatalf("pass during the day left shard 1 %v, want recovering", got)
	}
	if got := counter(f, coordinator.MetricRejoinFailures); got != 0 {
		t.Fatalf("%d rejoin failures counted for a pass that found the fleet busy", got)
	}
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("first pass after the day left shard 1 %v, want healthy", got)
	}
	if got := counter(f, coordinator.MetricRejoins); got != 1 {
		t.Fatalf("%d rejoins counted, want 1", got)
	}
}

// The loop runs passes on the coordinator's clock until Stop, which waits
// for the pass in flight and may be called again.
func TestSupervisionStartStop(t *testing.T) {
	f := launch(t, 1, func(cfg *chaos.FleetConfig) { cfg.Coordinator.ProbeInterval = time.Millisecond })
	f.Coord.Start(context.Background())
	defer f.Coord.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for counter(f, coordinator.MetricProbes) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the loop sent no probe in 5 s")
		}
		time.Sleep(time.Millisecond)
	}
	f.Coord.Stop()
	probes := counter(f, coordinator.MetricProbes)
	f.Coord.Stop()
	time.Sleep(10 * time.Millisecond)
	if got := counter(f, coordinator.MetricProbes); got != probes {
		t.Fatalf("%d probes after Stop, want %d", got, probes)
	}
}

// The supervision series are the operator's /metrics contract: an outage
// that takes the fleet through every path — whole-fleet quarantine, an
// unverified and a verified rejoin, a failed and a successful relaunch, a
// refused handshake — leaves each of them on the registry under its literal
// name.
func TestSupervisionMetricNamesPinned(t *testing.T) {
	var refuse atomic.Bool
	f := launch(t, 2, both(durable(t), both(superviseEvery(time.Second, time.Second), wrapShard(1, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if refuse.Load() && r.URL.Path == "/v1/shard/status" {
				http.Error(w, "handshake refused", http.StatusForbidden)
				return
			}
			next.ServeHTTP(w, r)
		})
	}))))
	ctx := context.Background()

	// Whole-fleet quarantine: shard 0, out last, rejoins unverified and
	// shard 1 takes its state from it.
	f.Coord.MarkDown(1)
	f.Coord.MarkDown(0)
	f.Coord.Step(ctx)
	if got := f.Coord.States(); got[0] != coordinator.Healthy || got[1] != coordinator.Healthy {
		t.Fatalf("after the whole-fleet outage: %v, want both healthy", got)
	}

	// A dead shard is scored down by silent probes; its first relaunch
	// fails (its WAL directory is unusable), the second starts it, and its
	// first rejoin handshake is refused.
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	stepUntilDown(t, f, 1)
	dir := f.Dir(1)
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f.Clock.Sleep(2 * time.Second)
	f.Coord.Step(ctx)
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	f.Clock.Sleep(2 * time.Second)
	f.Coord.Step(ctx)
	refuse.Store(true)
	f.Coord.Step(ctx)
	refuse.Store(false)
	f.Coord.Step(ctx)
	if got := state(f, 1); got != coordinator.Healthy {
		t.Fatalf("relaunched shard 1 is %v, want healthy", got)
	}

	snap := f.Reg.Snapshot()
	for _, name := range []string{
		"supervisor.transitions|suspect", "supervisor.transitions|down",
		"supervisor.transitions|recovering", "supervisor.transitions|healthy",
		"supervisor.quarantines", "supervisor.probes", "supervisor.probe_failures",
		"supervisor.relaunches", "supervisor.relaunch_failures",
		"router.rejoins", "router.rejoin_failures", "router.rejoin_unverified",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is missing or zero", name)
		}
	}
	for _, name := range []string{"supervisor.shard.state|shard0", "supervisor.shard.state|shard1"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q is missing", name)
		}
	}
	if snap.Histograms["supervisor.mttr"].Count == 0 {
		t.Error(`histogram "supervisor.mttr" is missing or empty`)
	}
}
