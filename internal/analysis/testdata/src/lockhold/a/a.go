// Package a exercises lockhold: blocking calls under a held mutex.
package a

import (
	"os"
	"sync"
	"time"
)

// Clock mirrors the injectable clock; its Sleep blocks exactly like
// time.Sleep does in production.
type Clock interface {
	Sleep(d time.Duration)
}

type widget struct {
	mu sync.Mutex
	n  int
}

// SleepUnderLock blocks while holding mu.
func (w *widget) SleepUnderLock() {
	w.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding w.mu"
	w.mu.Unlock()
}

// DeferredHold keeps mu held through the I/O via the deferred unlock.
func (w *widget) DeferredHold(path string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := os.Open(path) // want "file I/O os.Open while holding w.mu"
	return err
}

// ChannelOps block while holding mu.
func (w *widget) ChannelOps(ch chan int) {
	w.mu.Lock()
	ch <- 1 // want "channel send while holding w.mu"
	<-ch    // want "channel receive while holding w.mu"
	w.mu.Unlock()
}

// SelectWait blocks in a select without a default clause.
func (w *widget) SelectWait(ch chan int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select { // want "select without default while holding w.mu"
	case v := <-ch:
		w.n = v
	}
}

// SelectPoll is non-blocking: a select with default never parks.
func (w *widget) SelectPoll(ch chan int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case v := <-ch:
		w.n = v
	default:
	}
}

// Throttle is the PR 2 pattern and the false-positive regression for this
// analyzer: reserve under the lock, release, then wait outside it.
func (w *widget) Throttle(c Clock) {
	w.mu.Lock()
	wait := time.Duration(w.n)
	w.mu.Unlock()
	c.Sleep(wait)
}

// ThrottleEarlyReturn is the marketing client's throttle as it stands: an
// early return that unlocks on its own branch, then reserve, release, wait.
func (w *widget) ThrottleEarlyReturn(c Clock) {
	w.mu.Lock()
	if w.n <= 0 {
		w.n = 1
		w.mu.Unlock()
		return
	}
	wait := time.Duration(w.n)
	w.mu.Unlock()
	if wait > 0 {
		c.Sleep(wait)
	}
}

// ThrottleSleepsLocked is the same function with the PR 2 bug put back. The
// unlock on the early-return branch belongs to that branch: the path that
// reaches the sleep still holds mu.
func (w *widget) ThrottleSleepsLocked(c Clock) {
	w.mu.Lock()
	if w.n <= 0 {
		w.n = 1
		w.mu.Unlock()
		return
	}
	wait := time.Duration(w.n)
	if wait > 0 {
		c.Sleep(wait) // want "Sleep call"
	}
	w.mu.Unlock()
}

// UnlockPerCase releases in every clause of a switch; a clause that returns
// does not release for the others.
func (w *widget) UnlockPerCase(c Clock) {
	w.mu.Lock()
	switch {
	case w.n == 0:
		w.mu.Unlock()
		return
	case w.n == 1:
		c.Sleep(time.Millisecond) // want "Sleep call"
	}
	w.mu.Unlock()
}

// ClockUnderLock is the shape Throttle exists to avoid: an injected clock's
// Sleep is just as blocking as time.Sleep.
func (w *widget) ClockUnderLock(c Clock) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c.Sleep(time.Millisecond) // want "Sleep call"
}

// Spawn's function literal runs on its own goroutine: it does not hold the
// creating goroutine's lock, so its channel receive is clean.
func (w *widget) Spawn(ch chan int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	go func() {
		<-ch
	}()
}

// Flush deliberately syncs under the lock: the group-commit design.
func (w *widget) Flush(f *os.File) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return f.Sync() //adlint:allow lockhold (group commit: the single writer flushes under the latch)
}
