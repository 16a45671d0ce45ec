// Package clocked is the false-positive regression for detrand: it is not
// determinism-critical (no path-suffix match), so wall-clock reads and global
// rand draws here must produce no diagnostics.
package clocked

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock in a non-critical package: allowed.
func Stamp() time.Time { return time.Now() }

// Roll draws from the global generator in a non-critical package: allowed.
func Roll() int { return rand.Intn(6) }
