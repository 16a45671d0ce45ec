package supervisor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

func TestHealthScoring(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewFleetHealth(1, reg, obs.NewManualClock())

	if got := h.Observe(0, false); got != Healthy {
		t.Fatalf("1 failure: %v, want healthy", got)
	}
	if got := h.Observe(0, false); got != Suspect {
		t.Fatalf("2 failures: %v, want suspect", got)
	}
	// An HTTP answer — any answer — resets the streak entirely.
	if got := h.Observe(0, true); got != Healthy {
		t.Fatalf("answer after suspect: %v, want healthy", got)
	}
	for i := 0; i < 3; i++ {
		h.Observe(0, false)
	}
	if got := h.State(0); got != Suspect {
		t.Fatalf("3 failures: %v, want suspect", got)
	}
	if got := h.Observe(0, false); got != Down {
		t.Fatalf("4 failures: %v, want down", got)
	}
	if h.DownSince(0).IsZero() {
		t.Fatalf("down shard has no downSince")
	}
	// Observations cannot promote out of down — readmission goes through
	// the rejoin gate only.
	if got := h.Observe(0, true); got != Down {
		t.Fatalf("answer while down: %v, want down (rejoin gate only)", got)
	}
	if !h.MarkRecovering(0) {
		t.Fatalf("MarkRecovering from down refused")
	}
	if h.MarkRecovering(0) {
		t.Fatalf("MarkRecovering from recovering accepted")
	}
	if got := h.Observe(0, true); got != Recovering {
		t.Fatalf("answer while recovering: %v, want recovering", got)
	}
	h.MarkHealthy(0)
	if got := h.State(0); got != Healthy {
		t.Fatalf("after MarkHealthy: %v", got)
	}
	if !h.DownSince(0).IsZero() {
		t.Fatalf("downSince survived readmission")
	}
}

// The structural no-flap property: a shard answering every request — even if
// every answer is an injected 5xx — never leaves healthy, because Observe
// scores liveness, not success. Satellite check for the fault-injection
// wiring.
func TestHealthNeverFlapsOnErrorAnswers(t *testing.T) {
	h := NewFleetHealth(1, nil, obs.NewManualClock())
	for i := 0; i < 1000; i++ {
		// alive=true models any HTTP status arriving, 500s included.
		if got := h.Observe(0, true); got != Healthy {
			t.Fatalf("iteration %d: %v, want healthy", i, got)
		}
	}
	// Even interleaved transport failures below the threshold never reach
	// suspect when answers keep arriving.
	for i := 0; i < 100; i++ {
		h.Observe(0, false)
		if got := h.Observe(0, true); got != Healthy {
			t.Fatalf("interleaved iteration %d: %v, want healthy", i, got)
		}
	}
}

func TestHealthMTTR(t *testing.T) {
	reg := obs.NewRegistry()
	clock := obs.NewManualClock()
	h := NewFleetHealth(1, reg, clock)
	h.MarkDown(0)
	clock.Sleep(90 * time.Second)
	h.MarkRecovering(0)
	// A failed recovery demotes without resetting the outage start.
	h.MarkDown(0)
	clock.Sleep(30 * time.Second)
	h.MarkRecovering(0)
	h.MarkHealthy(0)
	hist := reg.Histogram(MetricMTTR)
	if hist.Count() != 1 {
		t.Fatalf("MTTR observations: %d, want 1", hist.Count())
	}
	if got, want := hist.Max(), 2*time.Minute; got != want {
		t.Fatalf("MTTR %v, want %v (demotion must keep the original outage start)", got, want)
	}
}

// fakeCluster scripts per-shard probe outcomes and records supervisor calls.
type fakeCluster struct {
	mu          sync.Mutex
	health      *FleetHealth
	alive       []bool
	quarantined []bool
	rejoinErr   []error
	rejoins     []int
}

func newFakeCluster(n int, clock obs.Clock) *fakeCluster {
	f := &fakeCluster{
		health:      NewFleetHealth(n, nil, clock),
		alive:       make([]bool, n),
		quarantined: make([]bool, n),
		rejoinErr:   make([]error, n),
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	return f
}

func (f *fakeCluster) Shards() int          { return len(f.alive) }
func (f *fakeCluster) Health() *FleetHealth { return f.health }

func (f *fakeCluster) ProbeShard(_ context.Context, shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.alive[shard] {
		return nil
	}
	return fmt.Errorf("connection refused")
}

func (f *fakeCluster) Quarantine(shard int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	was := !f.quarantined[shard]
	f.quarantined[shard] = true
	f.health.MarkDown(shard)
	return was
}

func (f *fakeCluster) TryRejoin(_ context.Context, shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejoins = append(f.rejoins, shard)
	if err := f.rejoinErr[shard]; err != nil {
		return err
	}
	f.quarantined[shard] = false
	f.health.MarkHealthy(shard)
	return nil
}

func (f *fakeCluster) setAlive(shard int, alive bool) {
	f.mu.Lock()
	f.alive[shard] = alive
	f.mu.Unlock()
}

// fakeRelauncher records relaunches and can bring the shard back.
type fakeRelauncher struct {
	mu      sync.Mutex
	cluster *fakeCluster
	calls   []int
	revive  bool
}

func (f *fakeRelauncher) Relaunch(shard int) error {
	f.mu.Lock()
	f.calls = append(f.calls, shard)
	revive := f.revive
	f.mu.Unlock()
	if revive {
		f.cluster.setAlive(shard, true)
	}
	return nil
}

// A dead shard is scored down, quarantined, relaunched after the grace
// period, and rejoined once it answers again — the full lifecycle, driven
// step by step on a fake clock.
func TestSupervisorLifecycle(t *testing.T) {
	clock := obs.NewManualClock()
	cluster := newFakeCluster(2, clock)
	rel := &fakeRelauncher{cluster: cluster, revive: true}
	reg := obs.NewRegistry()
	sup := New(cluster, rel, Config{
		ProbeInterval:   time.Second,
		RelaunchAfter:   3 * time.Second,
		RelaunchBackoff: 5 * time.Second,
		Clock:           clock,
	}, reg)
	ctx := context.Background()

	// Healthy fleet: steps change nothing.
	sup.Step(ctx)
	if got := cluster.health.States(); got[0] != Healthy || got[1] != Healthy {
		t.Fatalf("healthy fleet scored %v", got)
	}

	// Shard 1 dies. DownAfter failed passes, a second apart, score it down
	// and quarantine it.
	cluster.setAlive(1, false)
	for i := 0; i < DownAfter; i++ {
		if i > 0 {
			clock.Sleep(time.Second)
		}
		if got := cluster.health.State(1); got == Down {
			t.Fatalf("down after %d failed probes, want %d", i, DownAfter)
		}
		sup.Step(ctx)
	}
	if got := cluster.health.State(1); got != Down {
		t.Fatalf("after %d failed probes: %v, want down", DownAfter, got)
	}
	if !cluster.quarantined[1] {
		t.Fatalf("down shard not quarantined")
	}
	if len(rel.calls) != 0 {
		t.Fatalf("relaunched before the grace period: %v", rel.calls)
	}

	// Within the grace period: probed, not relaunched (a pause/partition
	// could clear on its own).
	clock.Sleep(time.Second)
	sup.Step(ctx)
	if len(rel.calls) != 0 {
		t.Fatalf("relaunched %v inside grace period", rel.calls)
	}

	// Past the grace period: relaunch fires, the shard answers again, the
	// next pass marks it recovering and rejoins it.
	clock.Sleep(3 * time.Second)
	sup.Step(ctx)
	if len(rel.calls) != 1 || rel.calls[0] != 1 {
		t.Fatalf("relaunch calls %v, want [1]", rel.calls)
	}
	sup.Step(ctx)
	if got := cluster.health.State(1); got != Healthy {
		t.Fatalf("after relaunch + rejoin: %v, want healthy", got)
	}
	if cluster.quarantined[1] {
		t.Fatalf("rejoined shard still quarantined")
	}
	if len(cluster.rejoins) == 0 {
		t.Fatalf("no rejoin attempted")
	}
	if reg.Counter(MetricRelaunches).Value() != 1 {
		t.Fatalf("relaunch counter %d", reg.Counter(MetricRelaunches).Value())
	}
}

// Relaunches are rate-limited per shard, and a busy fleet (ErrBusy) is not a
// rejoin failure.
func TestSupervisorRelaunchBackoffAndBusy(t *testing.T) {
	clock := obs.NewManualClock()
	cluster := newFakeCluster(1, clock)
	rel := &fakeRelauncher{cluster: cluster} // revive=false: stays dead
	reg := obs.NewRegistry()
	sup := New(cluster, rel, Config{
		ProbeInterval:   time.Second,
		RelaunchAfter:   time.Second,
		RelaunchBackoff: 10 * time.Second,
		Clock:           clock,
	}, reg)
	ctx := context.Background()

	cluster.setAlive(0, false)
	for i := 0; i < 8; i++ {
		sup.Step(ctx)
		clock.Sleep(time.Second)
	}
	if len(rel.calls) != 1 {
		t.Fatalf("relaunches within backoff window: %v, want exactly 1", rel.calls)
	}
	clock.Sleep(10 * time.Second)
	sup.Step(ctx)
	if len(rel.calls) != 2 {
		t.Fatalf("relaunches after backoff: %v, want 2", rel.calls)
	}

	// Busy rejoin: shard answers, fleet mutex held — not a failure.
	cluster.setAlive(0, true)
	cluster.rejoinErr[0] = ErrBusy
	sup.Step(ctx) // marks recovering, rejoin -> busy
	if got := cluster.health.State(0); got != Recovering {
		t.Fatalf("busy rejoin left state %v, want recovering", got)
	}
	if reg.Counter(MetricRejoinFailures).Value() != 0 {
		t.Fatalf("ErrBusy counted as rejoin failure")
	}
	cluster.rejoinErr[0] = errors.New("digest mismatch")
	sup.Step(ctx)
	if reg.Counter(MetricRejoinFailures).Value() != 1 {
		t.Fatalf("real rejoin failure not counted")
	}
	// And a recovering shard that dies again goes back to down.
	cluster.setAlive(0, false)
	sup.Step(ctx)
	if got := cluster.health.State(0); got != Down {
		t.Fatalf("recovering shard that died again: %v, want down", got)
	}
}

// The background loop runs on the injected clock and stops cleanly.
func TestSupervisorStartStop(t *testing.T) {
	clock := obs.NewManualClock()
	cluster := newFakeCluster(1, clock)
	sup := New(cluster, nil, Config{ProbeInterval: time.Millisecond, Clock: clock}, nil)
	sup.Start(context.Background())
	defer sup.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.health.State(0) == Healthy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sup.Stop()
	sup.Stop() // idempotent
}
