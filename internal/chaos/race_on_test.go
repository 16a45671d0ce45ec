//go:build race

package chaos

// Under the race detector a soak is about ten times slower; the sweep keeps
// a quarter of its seeds, which still draw every disturbance on both fleet
// widths.
const sweepSeeds = 26
