package coordinator

import (
	"fmt"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// State is one shard's position in the health machine (see the package
// documentation for its transitions).
type State int32

// The health states, in escalation order.
const (
	// Healthy shards take CRUD fan-out and delivery traffic.
	Healthy State = iota
	// Suspect shards have a short transport-failure streak; they still take
	// traffic (the streak either clears or escalates within a few probes).
	Suspect
	// Down shards are quarantined: out of service, excluded from fan-out
	// while CRUD goes on without them, and the supervision pass works on
	// bringing them back.
	Down
	// Recovering shards answer probes again but have not yet taken a peer's
	// replicated state and passed the digest gate; they stay quarantined
	// until rejoin completes.
	Recovering
)

// InService reports whether a shard in this state takes traffic: the CRUD
// fan-out, reads and delivery days. Healthy and suspect shards do; down and
// recovering ones are quarantined.
func (s State) InService() bool { return s == Healthy || s == Suspect }

// String names the state for topology output and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// The failure scoring. Each count is one failed probe or one failed fan-out
// call, both of which already sit behind the client's own retry loop, so a
// single streak unit means several wire failures in a row.
const (
	// suspectAfter is the consecutive transport-failure count that moves a
	// healthy shard to suspect.
	suspectAfter = 2
	// downAfter is the consecutive transport-failure count that moves a
	// shard to down (and quarantine).
	downAfter = 4
)

// fleetHealth scores every shard of one fleet, and is the fleet's only
// record of which shards are in service. The coordinator feeds it RPC
// outcomes and probe outcomes, reads admission from it and drives recovery
// by it.
type fleetHealth struct {
	reg   *obs.Registry
	clock obs.Clock

	mu     sync.Mutex
	shards []shardHealth
	// lastOut is the shard that left service last: after a whole-fleet
	// outage it alone holds every acknowledged mutation.
	lastOut int
}

// shardHealth is one shard's score and its state gauge.
type shardHealth struct {
	state     State
	fails     int
	downSince time.Time
	gauge     *obs.Gauge
}

// newFleetHealth builds the health model for the given shards, all healthy.
func newFleetHealth(shards []*shardConn, reg *obs.Registry, clock obs.Clock) *fleetHealth {
	h := &fleetHealth{reg: reg, clock: clock, shards: make([]shardHealth, len(shards))}
	for i, sc := range shards {
		h.shards[i].gauge = reg.Gauge(metricShardState + "|" + sc.label)
		h.shards[i].gauge.Set(int64(Healthy))
	}
	return h
}

// transitionLocked moves a shard and publishes the gauge + transition count.
// A move out of service is a quarantine, counted here once whichever path
// took the shard out: live RPCs, a probe or a forced markDown.
func (h *fleetHealth) transitionLocked(shard int, to State) {
	sh := &h.shards[shard]
	from := sh.state
	if from == to {
		return
	}
	sh.state = to
	sh.gauge.Set(int64(to))
	h.reg.Counter(MetricTransitions + "|" + to.String()).Inc()
	if from.InService() && !to.InService() {
		h.lastOut = shard
		h.reg.Counter(MetricQuarantines).Inc()
	}
}

// observe feeds one interaction outcome — a probe or a live fan-out RPC —
// into the score. alive means the shard gave ANY HTTP answer (2xx, terminal
// 4xx, even an injected 5xx): the process is up, the streak resets. Only
// transport silence counts against the shard. observe never promotes out of
// Down/Recovering (readmission goes through the rejoin gate), and returns
// the resulting state.
func (h *fleetHealth) observe(shard int, alive bool) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := &h.shards[shard]
	switch sh.state {
	case Down, Recovering:
		// Scored out already; recovery is the supervision pass's job.
		return sh.state
	}
	if alive {
		sh.fails = 0
		h.transitionLocked(shard, Healthy)
		return Healthy
	}
	sh.fails++
	switch {
	case sh.fails >= downAfter:
		sh.downSince = h.clock.Now()
		h.transitionLocked(shard, Down)
	case sh.fails >= suspectAfter:
		h.transitionLocked(shard, Suspect)
	}
	return sh.state
}

// state reads one shard's state.
func (h *fleetHealth) state(shard int) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shards[shard].state
}

// states snapshots every shard's state in shard order.
func (h *fleetHealth) states() []State {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]State, len(h.shards))
	for i := range h.shards {
		out[i] = h.shards[i].state
	}
	return out
}

// out lists the shards out of service, in shard order.
func (h *fleetHealth) out() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	for i := range h.shards {
		if !h.shards[i].state.InService() {
			out = append(out, i)
		}
	}
	return out
}

// reference is the first shard in service — the replica a rejoining shard
// takes its state from and digests against — or, when the whole fleet is
// out, the shard that left service last, with ok false.
func (h *fleetHealth) reference() (shard int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.shards {
		if h.shards[i].state.InService() {
			return i, true
		}
	}
	return h.lastOut, false
}

// downSince reports when the shard was scored down (zero if it never was, or
// has been readmitted since).
func (h *fleetHealth) downSince(shard int) time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shards[shard].downSince
}

// markDown forces a shard down — the coordinator quarantining a shard that
// answered a mutation unlike its peers, or the supervision pass demoting a
// recovering shard whose probe failed again. The original downSince is kept
// on a Recovering→Down demotion so MTTR stays honest.
func (h *fleetHealth) markDown(shard int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := &h.shards[shard]
	if sh.state != Down {
		if sh.downSince.IsZero() || sh.state.InService() {
			sh.downSince = h.clock.Now()
		}
		sh.fails = 0
		h.transitionLocked(shard, Down)
	}
}

// markRecovering moves a down shard to recovering (its probe answered).
// Reports whether the transition happened.
func (h *fleetHealth) markRecovering(shard int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shards[shard].state != Down {
		return false
	}
	h.transitionLocked(shard, Recovering)
	return true
}

// markHealthy readmits a shard after a completed rejoin, observing MTTR
// (down-detection to verified readmission) when the shard had been down.
func (h *fleetHealth) markHealthy(shard int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := &h.shards[shard]
	if !sh.downSince.IsZero() {
		h.reg.Histogram(MetricMTTR).Observe(h.clock.Now().Sub(sh.downSince))
		sh.downSince = time.Time{}
	}
	sh.fails = 0
	h.transitionLocked(shard, Healthy)
}
