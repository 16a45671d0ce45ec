package coordinator_test

// The supervision pass over the simulated fleet, its clock in the test's
// hands: when a shard is scored down, when its process is relaunched, when
// it rejoins, and what a pass does while a delivery day holds the fleet.

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/supervisor"
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

// A dead shard is scored down after DownAfter failed passes, relaunched once
// it has been down RelaunchAfter and not before, and rejoined by the pass
// after it answers again — the full lifecycle, pass by pass.
func TestSupervisionLifecycle(t *testing.T) {
	f := launch(t, 2, superviseEvery(3*time.Second, 5*time.Second))
	ctx := context.Background()
	health := f.Coord.Health()

	f.Coord.Step(ctx)
	if got := health.States(); got[0] != supervisor.Healthy || got[1] != supervisor.Healthy {
		t.Fatalf("healthy fleet scored %v", got)
	}

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < supervisor.DownAfter; i++ {
		if i > 0 {
			f.Clock.Sleep(time.Second)
		}
		if got := health.State(1); got == supervisor.Down {
			t.Fatalf("down after %d failed probes, want %d", i, supervisor.DownAfter)
		}
		f.Coord.Step(ctx)
	}
	if got := health.State(1); got != supervisor.Down || got.InService() {
		t.Fatalf("after %d failed probes: %v, want down and out of service", supervisor.DownAfter, got)
	}

	// Inside the grace period a pass probes and leaves the process alone: a
	// pause or a partition could clear on its own.
	f.Clock.Sleep(time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, supervisor.MetricRelaunches); got != 0 {
		t.Fatalf("%d relaunches inside the grace period", got)
	}

	// Past it the pass relaunches the shard, and the next pass finds it
	// answering, marks it recovering and rejoins it.
	f.Clock.Sleep(3 * time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, supervisor.MetricRelaunches); got != 1 {
		t.Fatalf("%d relaunches past the grace period, want 1", got)
	}
	if got := health.State(1); got != supervisor.Down {
		t.Fatalf("relaunching pass left shard 1 %v, want down until the next pass", got)
	}
	f.Coord.Step(ctx)
	if got := health.State(1); got != supervisor.Healthy {
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
	health := f.Coord.Health()

	f.SetPartition(1, true)
	for i := 0; i < 8; i++ {
		f.Coord.Step(ctx)
		f.Clock.Sleep(time.Second)
	}
	if got := counter(f, supervisor.MetricRelaunches); got != 1 {
		t.Fatalf("%d relaunches within the backoff window, want exactly 1", got)
	}
	f.Clock.Sleep(10 * time.Second)
	f.Coord.Step(ctx)
	if got := counter(f, supervisor.MetricRelaunches); got != 2 {
		t.Fatalf("%d relaunches after the backoff, want 2", got)
	}

	refuse.Store(true)
	f.SetPartition(1, false)
	f.Coord.Step(ctx)
	if got := health.State(1); got != supervisor.Recovering {
		t.Fatalf("refused handshake left shard 1 %v, want recovering", got)
	}
	if got := counter(f, coordinator.MetricRejoinFailures); got != 1 {
		t.Fatalf("refused handshake counted %d times in %s, want once", got, coordinator.MetricRejoinFailures)
	}

	f.SetPartition(1, true)
	f.Coord.Step(ctx)
	if got := health.State(1); got != supervisor.Down {
		t.Fatalf("recovering shard that went silent: %v, want down", got)
	}

	refuse.Store(false)
	f.SetPartition(1, false)
	f.Coord.Step(ctx)
	if got := health.State(1); got != supervisor.Healthy {
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
				f.Coord.Health().MarkDown(1)
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
	if got := f.Coord.Health().State(1); got != supervisor.Recovering {
		t.Fatalf("pass during the day left shard 1 %v, want recovering", got)
	}
	if got := counter(f, coordinator.MetricRejoinFailures); got != 0 {
		t.Fatalf("%d rejoin failures counted for a pass that found the fleet busy", got)
	}
	f.Coord.Step(ctx)
	if got := f.Coord.Health().State(1); got != supervisor.Healthy {
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
	for counter(f, supervisor.MetricProbes) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the loop sent no probe in 5 s")
		}
		time.Sleep(time.Millisecond)
	}
	f.Coord.Stop()
	probes := counter(f, supervisor.MetricProbes)
	f.Coord.Stop()
	time.Sleep(10 * time.Millisecond)
	if got := counter(f, supervisor.MetricProbes); got != probes {
		t.Fatalf("%d probes after Stop, want %d", got, probes)
	}
}
