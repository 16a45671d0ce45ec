package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall time so that packages under the determinism lint
// (the delivery engine in particular) can be instrumented without calling
// time.Now directly: the clock arrives by injection, tests can substitute a
// fake, and timing stays observational — it never feeds back into seeded
// computation.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type systemClock struct{}

func (systemClock) Now() time.Time        { return time.Now() }
func (systemClock) Sleep(d time.Duration) { time.Sleep(d) }

// SystemClock is the real wall clock.
var SystemClock Clock = systemClock{}

// ManualClock is a Clock that moves only when slept on: Sleep returns at
// once and leaves the clock that much later. Tests and the simulated fleet
// (internal/chaos) run time-dependent code on it without waiting. It starts
// at a fixed non-zero instant, so a reading never passes for "unset".
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock returns a manual clock at its starting instant.
func NewManualClock() *ManualClock {
	return &ManualClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *ManualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
