// Package supervisor is the fleet self-healing layer over the multi-process
// serving tier: a per-shard health state machine fed by liveness probes and
// live RPC outcomes, a probe loop that quarantines shards scored down and
// relaunches (or re-attaches) them, and the rejoin hand-off back into the
// coordinator's CRUD fan-out and delivery pool.
//
// The state machine is deliberately conservative about what counts as
// failure: ANY HTTP answer — including injected 5xx, shed 429s, and terminal
// validation errors — proves the process is alive and resets the failure
// streak. Only transport-level silence (connection refused, timeout, dropped
// mid-body) advances a shard toward down, so a fleet under heavy fault
// injection at the network layer never flaps; see Observe.
//
// States and transitions:
//
//	healthy ──failures──▶ suspect ──failures──▶ down
//	   ▲                     │ success            │ probe answers
//	   │                     ▼                    ▼
//	   └──────rejoin────── recovering ◀───────────┘
//	                         │ probe fails again
//	                         ▼
//	                        down
//
// Readmission is never automatic: a recovering shard must replay the
// mutation journal gap and pass the cross-shard digest gate (the
// coordinator's TryRejoin) before MarkHealthy moves it back, which is also
// where MTTR is measured — down-detection to verified readmission.
package supervisor

import (
	"fmt"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// State is one shard's position in the health machine.
type State int32

// The health states, in escalation order.
const (
	// Healthy shards take CRUD fan-out and delivery traffic.
	Healthy State = iota
	// Suspect shards have a short transport-failure streak; they still take
	// traffic (the streak either clears or escalates within a few probes).
	Suspect
	// Down shards are quarantined: excluded from fan-out, their CRUD writes
	// queue in the mutation journal, and the supervisor works on bringing
	// them back.
	Down
	// Recovering shards answer probes again but have not yet replayed the
	// journal gap and passed the digest gate; they stay quarantined until
	// rejoin completes.
	Recovering
)

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
	// SuspectAfter is the consecutive transport-failure count that moves a
	// healthy shard to suspect.
	SuspectAfter = 2
	// DownAfter is the consecutive transport-failure count that moves a
	// shard to down (and quarantine).
	DownAfter = 4
)

// FleetHealth scores every shard of one fleet. It is shared between the
// coordinator (which feeds RPC outcomes and gates admission) and the
// supervisor loop (which feeds probe outcomes and drives recovery).
type FleetHealth struct {
	reg   *obs.Registry
	clock obs.Clock

	mu     sync.Mutex
	shards []shardHealth
}

// shardHealth is one shard's score.
type shardHealth struct {
	state     State
	fails     int
	downSince time.Time
}

// NewFleetHealth builds the health model for n shards, all healthy. Registry
// and clock may be nil (private registry, system clock).
func NewFleetHealth(n int, reg *obs.Registry, clock obs.Clock) *FleetHealth {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if clock == nil {
		clock = obs.SystemClock
	}
	h := &FleetHealth{reg: reg, clock: clock, shards: make([]shardHealth, n)}
	for i := range h.shards {
		h.setGaugeLocked(i, Healthy)
	}
	return h
}

// Shards reports the fleet size.
func (h *FleetHealth) Shards() int { return len(h.shards) }

// setGaugeLocked publishes a shard's state as a numeric gauge.
func (h *FleetHealth) setGaugeLocked(shard int, s State) {
	h.reg.Gauge(MetricShardState + "|" + shardLabel(shard)).Set(int64(s))
}

func shardLabel(shard int) string { return fmt.Sprintf("shard%d", shard) }

// transitionLocked moves a shard and publishes the gauge + transition count.
func (h *FleetHealth) transitionLocked(shard int, to State) {
	from := h.shards[shard].state
	if from == to {
		return
	}
	h.shards[shard].state = to
	h.setGaugeLocked(shard, to)
	h.reg.Counter(MetricTransitions + "|" + to.String()).Inc()
}

// Observe feeds one interaction outcome — a probe or a live fan-out RPC —
// into the score. alive means the shard gave ANY HTTP answer (2xx, terminal
// 4xx, even an injected 5xx): the process is up, the streak resets. Only
// transport silence counts against the shard. Observe never promotes out of
// Down/Recovering (readmission goes through the rejoin gate), and returns
// the resulting state.
func (h *FleetHealth) Observe(shard int, alive bool) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := &h.shards[shard]
	switch sh.state {
	case Down, Recovering:
		// Scored out already; recovery is the supervisor's job.
		return sh.state
	}
	if alive {
		sh.fails = 0
		h.transitionLocked(shard, Healthy)
		return Healthy
	}
	sh.fails++
	switch {
	case sh.fails >= DownAfter:
		sh.downSince = h.clock.Now()
		h.transitionLocked(shard, Down)
	case sh.fails >= SuspectAfter:
		h.transitionLocked(shard, Suspect)
	}
	return sh.state
}

// State reads one shard's state.
func (h *FleetHealth) State(shard int) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shards[shard].state
}

// States snapshots every shard's state in shard order.
func (h *FleetHealth) States() []State {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]State, len(h.shards))
	for i := range h.shards {
		out[i] = h.shards[i].state
	}
	return out
}

// DownSince reports when the shard was scored down (zero if it never was, or
// has been readmitted since).
func (h *FleetHealth) DownSince(shard int) time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shards[shard].downSince
}

// MarkDown forces a shard down — the coordinator quarantining a shard whose
// fan-out failures crossed the threshold, or the supervisor demoting a
// recovering shard whose probe failed again. The original downSince is kept
// on a Recovering→Down demotion so MTTR stays honest.
func (h *FleetHealth) MarkDown(shard int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := &h.shards[shard]
	if sh.state != Down {
		if sh.downSince.IsZero() || sh.state == Healthy || sh.state == Suspect {
			sh.downSince = h.clock.Now()
		}
		sh.fails = 0
		h.transitionLocked(shard, Down)
	}
}

// MarkRecovering moves a down shard to recovering (its probe answered).
// Reports whether the transition happened.
func (h *FleetHealth) MarkRecovering(shard int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shards[shard].state != Down {
		return false
	}
	h.transitionLocked(shard, Recovering)
	return true
}

// MarkHealthy readmits a shard after a completed rejoin, observing MTTR
// (down-detection to verified readmission) when the shard had been down.
func (h *FleetHealth) MarkHealthy(shard int) {
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
