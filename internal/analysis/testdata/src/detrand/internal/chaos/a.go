// Package chaos is a detrand fixture: its import-path suffix internal/chaos
// is on the built-in determinism-critical list — the chaos schedule must be
// a pure function of (seed, tick) so a soak log replays bit-identically.
package chaos

import (
	"math/rand"
	"time"
)

// TickFromClock would tie the fault schedule to wall time: the same seed
// would disturb different requests on every run.
func TickFromClock() int64 {
	return time.Now().Unix() // want "wall-clock read time.Now"
}

// PickVictim draws the kill target from the process-global generator
// instead of the seeded schedule.
func PickVictim(n int) int {
	return rand.Intn(n) // want "global rand.Intn"
}

// ScheduledVictim is the sanctioned shape: the decision is a pure function
// of the seeded stream.
func ScheduledVictim(seed int64, tick, n int) int {
	rng := rand.New(rand.NewSource(seed + int64(tick)))
	return rng.Intn(n)
}
