// Package coordinator is a detrand fixture: its import-path suffix
// internal/coordinator is on the built-in determinism-critical list — the
// relaunch backoff must be Mix64-jittered from seeded state, never from the
// clock or the global RNG. It also proves the injectable-Clock pattern is
// exempt: a method named Now never resolves to time.Now.
package coordinator

import (
	"math/rand"
	"time"
)

// JitterFromClock seeds the relaunch backoff from wall time, so two
// identically-seeded soaks diverge at the first restart.
func JitterFromClock() time.Duration {
	return time.Duration(time.Now().UnixNano() % 1e6) // want "wall-clock read time.Now"
}

// GlobalJitter draws backoff jitter from the process-global generator.
func GlobalJitter(base time.Duration) time.Duration {
	return base + time.Duration(rand.Int63n(int64(base/4))) // want "global rand.Int63n"
}

// SeededJitter is the sanctioned shape: jitter from an explicit seeded
// source, pure in (seed, attempt).
func SeededJitter(seed int64, attempt int, base time.Duration) time.Duration {
	rng := rand.New(rand.NewSource(seed ^ int64(attempt)))
	return base + time.Duration(rng.Int63n(int64(base/4)))
}

// Clock abstracts time for injection, mirroring obs.Clock.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Stamp reads through the injected clock: no diagnostic.
func Stamp(c Clock) time.Time {
	return c.Now()
}
