// Package chaos is a deterministic chaos orchestrator for the multi-process
// serving tier: it disturbs real shard child processes — kill, SIGSTOP
// pauses, slowed and partitioned links — on a schedule that is a pure
// function of (seed, tick), the same stateless seeded-schedule idiom
// internal/faults uses for request-level disturbance (faults.Mix64).
//
// Determinism is what turns a chaos soak into a regression test: two runs
// with the same seed kill the same shards at the same ticks, so "the healed
// fleet's day digests are byte-identical to an undisturbed fleet's" is an
// assertable property, not a dice roll. The schedule deliberately has no
// clock and no RNG state — At(tick) can be replayed, inspected, or diffed
// without running anything.
//
// The orchestrator drives a Target — the seam between the schedule and the
// world. cmd/adchaos implements it with real process signals
// (supervisor.ProcessRelauncher) and a client-side faults.Gate; tests
// implement it with a fake.
package chaos

import (
	"fmt"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// Action names one chaos disturbance.
type Action string

// The disturbances.
const (
	// ActKill SIGKILLs the shard process. Recovery is the full resurrection
	// path: supervisor relaunch, WAL recovery, journal catch-up, digest-gated
	// rejoin.
	ActKill Action = "kill"
	// ActPause SIGSTOPs the shard for a window, then SIGCONTs it. The
	// process is alive but silent — indistinguishable from a network hang,
	// and the case that separates "no answer" from "error answer" scoring.
	ActPause Action = "pause"
	// ActSlow delays every RPC to the shard for a window (client-side).
	ActSlow Action = "slow"
	// ActPartition blocks every RPC to the shard for a window, health
	// probes included: the process runs, the coordinator cannot tell.
	ActPartition Action = "partition"
)

// AllActions lists every disturbance in schedule order.
func AllActions() []Action {
	return []Action{ActKill, ActPause, ActSlow, ActPartition}
}

// ParseActions parses a comma-separated action list ("kill,pause"). The
// empty string and "all" select every action.
func ParseActions(s string) ([]Action, error) {
	return faults.ParseList(s, "chaos: unknown action", AllActions())
}

// Config parameterizes a chaos schedule.
type Config struct {
	// Seed drives the schedule. Same seed, same disturbances.
	Seed int64
	// Shards is the fleet width disturbances are drawn over.
	Shards int
	// Rate is the disturbance probability per eligible tick, in [0,1].
	Rate float64
	// Actions are the eligible disturbances; empty means all of them.
	Actions []Action
	// MinGap spaces eligible ticks: only every MinGap-th tick can disturb,
	// so the fleet gets healing room between injuries and "every shard down
	// at once" stays rare rather than routine. 0 defaults to 4.
	MinGap int
}

// windowTicks is how long each windowed action lasts, in ticks; a kill has
// no window.
var windowTicks = map[Action]int{ActPause: 2, ActSlow: 3, ActPartition: 3}

func (c Config) withDefaults() Config {
	if len(c.Actions) == 0 {
		c.Actions = AllActions()
	}
	if c.MinGap <= 0 {
		c.MinGap = 4
	}
	return c
}

// Event is one scheduled disturbance.
type Event struct {
	Tick   int    `json:"tick"`
	Shard  int    `json:"shard"`
	Action Action `json:"action"`
	// Ticks is the window length for pause/slow/partition; 0 for kill.
	Ticks int `json:"ticks,omitempty"`
}

// Schedule maps ticks to disturbances, purely.
type Schedule struct {
	cfg Config
}

// NewSchedule builds a schedule.
func NewSchedule(cfg Config) (*Schedule, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("chaos: shards %d < 1", cfg.Shards)
	}
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("chaos: rate %v outside [0,1]", cfg.Rate)
	}
	return &Schedule{cfg: cfg.withDefaults()}, nil
}

// At returns the disturbance at a tick, or nil for a calm tick — a pure
// function of (seed, tick): no state, no clock, no RNG cursor.
func (s *Schedule) At(tick int) *Event {
	if tick < 0 || tick%s.cfg.MinGap != 0 {
		return nil
	}
	bits, coin := faults.Draw(s.cfg.Seed, uint64(tick))
	if coin >= s.cfg.Rate {
		return nil
	}
	// Independent bits for the action and the victim.
	sub := faults.Mix64(int64(bits), uint64(tick)+1)
	action := s.cfg.Actions[int(sub%uint64(len(s.cfg.Actions)))]
	return &Event{
		Tick:   tick,
		Shard:  int((sub >> 16) % uint64(s.cfg.Shards)),
		Action: action,
		Ticks:  windowTicks[action],
	}
}

// Target is the seam the orchestrator disturbs through. Implementations:
// real process signals plus a client-side gate (cmd/adchaos), or a fake
// (tests). Implementations should treat disturbing an already-dead shard as
// a no-op — the schedule is blind to the supervisor's relaunch timing by
// design.
type Target interface {
	// Kill terminates the shard process (SIGKILL: no goodbye, no flush).
	Kill(shard int) error
	// Pause stops the shard process (SIGSTOP); Resume continues it.
	Pause(shard int) error
	Resume(shard int) error
	// SetSlow turns client-side slowness toward the shard on or off.
	SetSlow(shard int, on bool)
	// SetPartition blocks (or unblocks) every client call to the shard.
	SetPartition(shard int, on bool)
}

// Orchestrator walks the schedule tick by tick against a target, opening
// and closing disturbance windows. Time is injected: the tick cadence comes
// from the caller's clock, and all internal bookkeeping is in ticks.
type Orchestrator struct {
	sched  *Schedule
	target Target
	clock  obs.Clock

	// Window expiry ticks, 0 = no open window. Pause windows track the
	// process; slow/partition windows track the link (they survive a kill —
	// the gate is client-side and doesn't care which process answers).
	pauseUntil []int
	slowUntil  []int
	partUntil  []int

	events []Event
}

// NewOrchestrator builds an orchestrator over a schedule and target. Clock
// may be nil for the system clock (tests inject one).
func NewOrchestrator(sched *Schedule, target Target, clock obs.Clock) *Orchestrator {
	if clock == nil {
		clock = obs.SystemClock
	}
	n := sched.cfg.Shards
	return &Orchestrator{
		sched:      sched,
		target:     target,
		clock:      clock,
		pauseUntil: make([]int, n),
		slowUntil:  make([]int, n),
		partUntil:  make([]int, n),
	}
}

// Step advances the orchestrator to a tick: expires windows that end at or
// before it, then applies the scheduled disturbance (if any), returning the
// applied event.
func (o *Orchestrator) Step(tick int) (*Event, error) {
	for shard := range o.pauseUntil {
		if o.pauseUntil[shard] != 0 && tick >= o.pauseUntil[shard] {
			o.pauseUntil[shard] = 0
			if err := o.target.Resume(shard); err != nil {
				return nil, fmt.Errorf("chaos: resume shard %d at tick %d: %w", shard, tick, err)
			}
		}
		if o.slowUntil[shard] != 0 && tick >= o.slowUntil[shard] {
			o.slowUntil[shard] = 0
			o.target.SetSlow(shard, false)
		}
		if o.partUntil[shard] != 0 && tick >= o.partUntil[shard] {
			o.partUntil[shard] = 0
			o.target.SetPartition(shard, false)
		}
	}
	e := o.sched.At(tick)
	if e == nil {
		return nil, nil
	}
	switch e.Action {
	case ActKill:
		// A kill fells a paused process too (SIGKILL is unmaskable), and the
		// relaunched process starts running: the pause window dies with its
		// process.
		o.pauseUntil[e.Shard] = 0
		if err := o.target.Kill(e.Shard); err != nil {
			return nil, fmt.Errorf("chaos: kill shard %d at tick %d: %w", e.Shard, tick, err)
		}
	case ActPause:
		if o.pauseUntil[e.Shard] == 0 {
			if err := o.target.Pause(e.Shard); err != nil {
				return nil, fmt.Errorf("chaos: pause shard %d at tick %d: %w", e.Shard, tick, err)
			}
		}
		o.pauseUntil[e.Shard] = tick + e.Ticks
	case ActSlow:
		if o.slowUntil[e.Shard] == 0 {
			o.target.SetSlow(e.Shard, true)
		}
		o.slowUntil[e.Shard] = tick + e.Ticks
	case ActPartition:
		if o.partUntil[e.Shard] == 0 {
			o.target.SetPartition(e.Shard, true)
		}
		o.partUntil[e.Shard] = tick + e.Ticks
	}
	o.events = append(o.events, *e)
	return e, nil
}

// Run walks ticks [0, ticks) with the given cadence, then quiesces. The
// returned events are the disturbances actually applied.
func (o *Orchestrator) Run(ticks int, tickLen time.Duration) ([]Event, error) {
	for tick := 0; tick < ticks; tick++ {
		if _, err := o.Step(tick); err != nil {
			return o.events, err
		}
		o.clock.Sleep(tickLen)
	}
	return o.events, o.Quiesce()
}

// Quiesce closes every open window — resumes paused shards, lifts slowness
// and partitions — so the fleet's healing can complete undisturbed.
func (o *Orchestrator) Quiesce() error {
	for shard := range o.pauseUntil {
		if o.pauseUntil[shard] != 0 {
			o.pauseUntil[shard] = 0
			if err := o.target.Resume(shard); err != nil {
				return fmt.Errorf("chaos: quiesce resume shard %d: %w", shard, err)
			}
		}
		if o.slowUntil[shard] != 0 {
			o.slowUntil[shard] = 0
			o.target.SetSlow(shard, false)
		}
		if o.partUntil[shard] != 0 {
			o.partUntil[shard] = 0
			o.target.SetPartition(shard, false)
		}
	}
	return nil
}

// Events returns the disturbances applied so far.
func (o *Orchestrator) Events() []Event {
	return append([]Event(nil), o.events...)
}
