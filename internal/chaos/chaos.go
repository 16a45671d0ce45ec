// Package chaos disturbs a serving fleet on a deterministic schedule and
// checks that it heals to the bytes an undisturbed fleet produces. A
// disturbance — kill, pause, slowed or partitioned link — is a pure function
// of (seed, tick), drawn through faults.Schedule, the one seeded
// slot → disturbance map in the repository; a schedule can equally be an
// explicit event list, which is what a failing seed is shrunk to and pinned
// as. Two runs with the same seed disturb alike, so "the healed fleet's
// digests are byte-identical to an undisturbed fleet's" is an assertable
// property, not a dice roll.
//
// The Orchestrator applies a schedule to a Target, the seam between the
// schedule and the world. Soak (soak.go) is the workload and the invariants;
// it runs over a Deployment, of which there are two: Fleet (fleet.go), a
// whole fleet in one process on a virtual clock, with which `go test`
// explores schedules by the hundred, and cmd/adchaos's real adplatform
// children, kept as the check that the simulated kill matches a real kill -9.
package chaos

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/adaudit/impliedidentity/internal/faults"
)

// Action names one chaos disturbance.
type Action string

// The disturbances.
const (
	// ActKill SIGKILLs the shard process. Recovery is the full resurrection
	// path: supervisor relaunch, WAL recovery, state transfer from a peer,
	// digest-gated rejoin.
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
	// Rate is the disturbance probability per eligible tick, in [0,1]; 0
	// disturbs nothing.
	Rate float64
	// Actions are the eligible disturbances; empty means all of them.
	Actions []Action
	// MinGap spaces eligible ticks: only every MinGap-th tick can disturb,
	// so the fleet gets healing room between injuries and "every shard down
	// at once" stays rare rather than routine. 0 means 4; never negative.
	MinGap int
}

// windowTicks is how long each windowed action lasts, in ticks; a kill has
// no window.
var windowTicks = map[Action]int{ActPause: 2, ActSlow: 3, ActPartition: 3}

// Event is one scheduled disturbance.
type Event struct {
	Tick   int    `json:"tick"`
	Shard  int    `json:"shard"`
	Action Action `json:"action"`
	// Ticks is the window length for pause/slow/partition; 0 for kill.
	Ticks int `json:"ticks,omitempty"`
}

// Schedule maps ticks to disturbances, purely: seeded (NewSchedule) or an
// explicit event list (ScheduleOf).
type Schedule struct {
	shards  int
	seeded  faults.Schedule
	actions []Action
	listed  map[int]Event // explicit schedules only
}

// NewSchedule builds a seeded schedule.
func NewSchedule(cfg Config) (*Schedule, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("chaos: shards %d < 1", cfg.Shards)
	}
	if cfg.MinGap < 0 {
		return nil, fmt.Errorf("chaos: MinGap %d is negative (0: every 4th tick)", cfg.MinGap)
	}
	cfg.MinGap = cmp.Or(cfg.MinGap, 4)
	if len(cfg.Actions) == 0 {
		cfg.Actions = AllActions()
	}
	seeded := faults.Schedule{Seed: cfg.Seed, Rate: cfg.Rate, Gap: cfg.MinGap, Kinds: len(cfg.Actions), Salted: true}
	if err := seeded.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{shards: cfg.Shards, seeded: seeded, actions: cfg.Actions}, nil
}

// ScheduleOf builds the schedule that disturbs a fleet of the given width
// with exactly these events, at most one a tick.
func ScheduleOf(shards int, events []Event) (*Schedule, error) {
	s := &Schedule{shards: shards, listed: make(map[int]Event, len(events))}
	for _, e := range events {
		if _, dup := s.listed[e.Tick]; dup || e.Tick < 0 || e.Shard < 0 || e.Shard >= shards || !slices.Contains(AllActions(), e.Action) {
			return nil, fmt.Errorf("chaos: event %+v: a schedule holds one known action a tick, on a shard below %d", e, shards)
		}
		s.listed[e.Tick] = e
	}
	return s, nil
}

// Shards is the fleet width the schedule was drawn over.
func (s *Schedule) Shards() int { return s.shards }

// At returns the disturbance at a tick, or nil for a calm tick — a pure
// function of the schedule: no state, no clock, no RNG cursor.
func (s *Schedule) At(tick int) *Event {
	if s.listed != nil {
		if e, ok := s.listed[tick]; ok {
			return &e
		}
		return nil
	}
	if tick < 0 {
		return nil
	}
	k, bits, ok := s.seeded.At(uint64(tick))
	if !ok {
		return nil
	}
	action := s.actions[k]
	return &Event{
		Tick:   tick,
		Shard:  int((bits >> 16) % uint64(s.shards)),
		Action: action,
		Ticks:  windowTicks[action],
	}
}

// Events lists the disturbances of ticks [0, ticks).
func (s *Schedule) Events(ticks int) []Event {
	var out []Event
	for tick := 0; tick < ticks; tick++ {
		if e := s.At(tick); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Target is the seam the orchestrator disturbs through. Implementations:
// the in-process Fleet, real process signals plus a client-side gate
// (cmd/adchaos), or a fake (tests). Implementations should treat disturbing
// an already-dead shard as a no-op — the schedule is blind to the
// supervisor's relaunch timing by design.
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
// and closing disturbance windows. All of its bookkeeping is in ticks; the
// caller owns the cadence.
type Orchestrator struct {
	sched  *Schedule
	target Target
	// until holds, per windowed action and shard, the tick its open window
	// expires at; 0 is no window. A pause tracks the process; slow and
	// partition track the link and survive a kill — the gate is client-side
	// and does not care which process answers.
	until  map[Action][]int
	events []Event
}

// NewOrchestrator builds an orchestrator over a schedule and target.
func NewOrchestrator(sched *Schedule, target Target) *Orchestrator {
	o := &Orchestrator{sched: sched, target: target, until: map[Action][]int{}}
	for action := range windowTicks {
		o.until[action] = make([]int, sched.shards)
	}
	return o
}

// set opens or closes one shard's window of a windowed action.
func (o *Orchestrator) set(action Action, shard int, on bool) error {
	switch {
	case action == ActSlow:
		o.target.SetSlow(shard, on)
	case action == ActPartition:
		o.target.SetPartition(shard, on)
	case on:
		return o.target.Pause(shard)
	default:
		return o.target.Resume(shard)
	}
	return nil
}

// expire closes the windows that end at or before a tick.
func (o *Orchestrator) expire(tick int) error {
	for _, action := range AllActions() {
		for shard, until := range o.until[action] {
			if until != 0 && tick >= until {
				o.until[action][shard] = 0
				if err := o.set(action, shard, false); err != nil {
					return fmt.Errorf("chaos: ending %s of shard %d at tick %d: %w", action, shard, tick, err)
				}
			}
		}
	}
	return nil
}

// Step advances the orchestrator to a tick: expires windows that end at or
// before it, then applies the scheduled disturbance (if any), returning the
// applied event.
func (o *Orchestrator) Step(tick int) (*Event, error) {
	if err := o.expire(tick); err != nil {
		return nil, err
	}
	e := o.sched.At(tick)
	if e == nil {
		return nil, nil
	}
	var err error
	if e.Action == ActKill {
		// A kill fells a paused process too (SIGKILL is unmaskable), and the
		// relaunched process starts running: the pause window dies with its
		// process.
		o.until[ActPause][e.Shard] = 0
		err = o.target.Kill(e.Shard)
	} else {
		if o.until[e.Action][e.Shard] == 0 {
			err = o.set(e.Action, e.Shard, true)
		}
		o.until[e.Action][e.Shard] = tick + e.Ticks
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: %s shard %d at tick %d: %w", e.Action, e.Shard, tick, err)
	}
	o.events = append(o.events, *e)
	return e, nil
}

// Quiesce closes every open window — resumes paused shards, lifts slowness
// and partitions — so the fleet's healing can complete undisturbed.
func (o *Orchestrator) Quiesce() error { return o.expire(math.MaxInt) }

// Events returns the disturbances applied so far.
func (o *Orchestrator) Events() []Event { return slices.Clone(o.events) }
