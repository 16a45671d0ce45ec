package mathrand

// The stateless half of the package: SplitMix64 (Steele, Lea and Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014) as a pure
// function, and the (seed, slot) mixer built on it. A draw that must replay
// whatever order it is asked for in is a function of these: the fault and
// chaos schedules (faults.Schedule), the privacy noise (privacy.Draw), the
// delivery shards' seeds and the fleet's day-retry jitter.

// Gamma is SplitMix64's increment, the odd integer nearest 2⁶⁴/φ. Output n
// (from 0) of the SplitMix64 generator seeded with s is
// SplitMix64(s + n·Gamma).
const Gamma = 0x9e3779b97f4a7c15

// SplitMix64 is one step of the SplitMix64 generator from state x: x + Gamma
// through its finalizer.
func SplitMix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 maps (seed, slot) to 64 bits with no state, so a schedule of slots
// can be read in any order, replayed and diffed.
func Mix64(seed int64, slot uint64) uint64 {
	return SplitMix64(uint64(seed) ^ SplitMix64(slot))
}

// Unit is the top 53 bits of x as a uniform float64 in [0,1).
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
