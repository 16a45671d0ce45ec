package coordinator

import (
	"fmt"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// testHealth builds the health model over n anonymous shard connections.
func testHealth(n int, reg *obs.Registry, clock obs.Clock) *fleetHealth {
	shards := make([]*shardConn, n)
	for i := range shards {
		shards[i] = &shardConn{index: i, label: fmt.Sprintf("shard%d", i)}
	}
	return newFleetHealth(shards, reg, clock)
}

func TestHealthScoring(t *testing.T) {
	reg := obs.NewRegistry()
	h := testHealth(1, reg, obs.NewManualClock())

	if got := h.observe(0, false); got != Healthy {
		t.Fatalf("1 failure: %v, want healthy", got)
	}
	if got := h.observe(0, false); got != Suspect {
		t.Fatalf("2 failures: %v, want suspect", got)
	}
	// An HTTP answer — any answer — resets the streak entirely.
	if got := h.observe(0, true); got != Healthy {
		t.Fatalf("answer after suspect: %v, want healthy", got)
	}
	for i := 0; i < 3; i++ {
		h.observe(0, false)
	}
	if got := h.state(0); got != Suspect {
		t.Fatalf("3 failures: %v, want suspect", got)
	}
	if got := h.observe(0, false); got != Down {
		t.Fatalf("4 failures: %v, want down", got)
	}
	if h.downSince(0).IsZero() {
		t.Fatalf("down shard has no downSince")
	}
	// Observations cannot promote out of down — readmission goes through
	// the rejoin gate only.
	if got := h.observe(0, true); got != Down {
		t.Fatalf("answer while down: %v, want down (rejoin gate only)", got)
	}
	if !h.markRecovering(0) {
		t.Fatalf("MarkRecovering from down refused")
	}
	if h.markRecovering(0) {
		t.Fatalf("MarkRecovering from recovering accepted")
	}
	if got := h.observe(0, true); got != Recovering {
		t.Fatalf("answer while recovering: %v, want recovering", got)
	}
	h.markHealthy(0)
	if got := h.state(0); got != Healthy {
		t.Fatalf("after markHealthy: %v", got)
	}
	if !h.downSince(0).IsZero() {
		t.Fatalf("downSince survived readmission")
	}
}

// The structural no-flap property: a shard answering every request — even if
// every answer is an injected 5xx — never leaves healthy, because observe
// scores liveness, not success. Satellite check for the fault-injection
// wiring.
func TestHealthNeverFlapsOnErrorAnswers(t *testing.T) {
	h := testHealth(1, obs.NewRegistry(), obs.NewManualClock())
	for i := 0; i < 1000; i++ {
		// alive=true models any HTTP status arriving, 500s included.
		if got := h.observe(0, true); got != Healthy {
			t.Fatalf("iteration %d: %v, want healthy", i, got)
		}
	}
	// Even interleaved transport failures below the threshold never reach
	// suspect when answers keep arriving.
	for i := 0; i < 100; i++ {
		h.observe(0, false)
		if got := h.observe(0, true); got != Healthy {
			t.Fatalf("interleaved iteration %d: %v, want healthy", i, got)
		}
	}
}

func TestHealthMTTR(t *testing.T) {
	reg := obs.NewRegistry()
	clock := obs.NewManualClock()
	h := testHealth(1, reg, clock)
	h.markDown(0)
	clock.Sleep(90 * time.Second)
	h.markRecovering(0)
	// A failed recovery demotes without resetting the outage start.
	h.markDown(0)
	clock.Sleep(30 * time.Second)
	h.markRecovering(0)
	h.markHealthy(0)
	hist := reg.Histogram(MetricMTTR)
	if hist.Count() != 1 {
		t.Fatalf("MTTR observations: %d, want 1", hist.Count())
	}
	if got, want := hist.Max(), 2*time.Minute; got != want {
		t.Fatalf("MTTR %v, want %v (demotion must keep the original outage start)", got, want)
	}
}

// Admission is the health state: healthy and suspect shards are in service,
// each exit from service is counted once, and with the whole fleet out the
// reference is the shard that left service last.
func TestHealthIsAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	h := testHealth(3, reg, obs.NewManualClock())
	quarantines := func() int64 { return reg.Counter(MetricQuarantines).Value() }
	for i := 0; i < suspectAfter; i++ {
		h.observe(1, false)
	}
	if !h.state(1).InService() || len(h.out()) != 0 {
		t.Fatalf("suspect shard out of service: out %v", h.out())
	}
	for i := suspectAfter; i < downAfter; i++ {
		h.observe(1, false)
	}
	h.markDown(2)
	h.markDown(2)
	if got := h.out(); len(got) != 2 || got[0] != 1 || got[1] != 2 || quarantines() != 2 {
		t.Fatalf("out %v with %d quarantines, want [1 2] and 2", got, quarantines())
	}
	if ref, ok := h.reference(); !ok || ref != 0 {
		t.Fatalf("reference %d (%v), want shard 0 in service", ref, ok)
	}
	// A recovering shard that fails again was out already: not a new exit.
	h.markRecovering(1)
	h.markDown(1)
	h.markDown(0)
	if ref, ok := h.reference(); ok || ref != 0 || quarantines() != 3 {
		t.Fatalf("whole fleet out: reference %d (%v), %d quarantines; want shard 0, the last out, and 3", ref, ok, quarantines())
	}
}
