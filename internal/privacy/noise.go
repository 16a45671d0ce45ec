// Seeded discrete-Laplace noise: the differential-privacy half of the
// privatization pipeline. Every draw is a pure function of (seed, cell key,
// epsilon), built from the same SplitMix64 schedule primitive
// (mathrand.Mix64) the fault injector and chaos orchestrator use, so the
// noise stream is byte-stable across runs, processes, and map iteration
// orders — a merged cross-shard report and a single-process report noise
// identically because they name their cells identically.
package privacy

import (
	"math"

	"github.com/adaudit/impliedidentity/internal/mathrand"
)

// maxNoiseBound caps the truncation half-width so a pathological epsilon
// cannot make a single draw astronomically wide.
const maxNoiseBound = 1 << 20

// NoiseBound returns the truncation half-width B for the bounded mechanism:
// draws are clamped to [-B, B]. B is sized so the clamped tail mass is
// negligible (q^B ≈ e^-40) — the bound exists to keep a released count
// finite and the mechanism auditable, not to shape the distribution.
func NoiseBound(epsilon float64) int {
	if epsilon <= 0 {
		return 0
	}
	b := int(math.Ceil(40 / epsilon))
	if b > maxNoiseBound {
		return maxNoiseBound
	}
	return b
}

// NoiseVariance returns the variance of the (untruncated) discrete-Laplace
// distribution with parameter epsilon: 2q/(1-q)² for q = e^-epsilon. The
// power analysis uses it to size the detectability penalty of a noisy
// reporting surface.
func NoiseVariance(epsilon float64) float64 {
	if epsilon <= 0 {
		return 0
	}
	q := math.Exp(-epsilon)
	return 2 * q / ((1 - q) * (1 - q))
}

// fnv64 hashes a cell key to its noise-stream coordinate (FNV-1a).
func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// geometric inverts the Geometric(1-q) CDF at u: the count of failures
// before the first success, floor(ln u / ln q). u = 0 maps to the cap (the
// infinite tail), which the caller's bound clamps away.
func geometric(u, q float64, bound int) int {
	if u <= 0 {
		return bound
	}
	g := int(math.Floor(math.Log(u) / math.Log(q)))
	if g > bound {
		return bound
	}
	return g
}

// Draw returns the noise for one cell: a bounded discrete-Laplace variate
// with parameter epsilon, determined entirely by (seed, key). The variate
// is the difference of two independent Geometric(1-e^-epsilon) draws —
// exactly the two-sided geometric distribution P(X = x) ∝ e^(-epsilon·|x|)
// — truncated to ±NoiseBound(epsilon). The two uniforms come from chained
// Mix64 calls, the same sub-stream derivation the chaos schedule uses.
func Draw(seed int64, key string, epsilon float64) int {
	if epsilon <= 0 {
		return 0
	}
	h := fnv64(key)
	bits := mathrand.Mix64(seed, h)
	sub := mathrand.Mix64(int64(bits), h+1)
	q := math.Exp(-epsilon)
	b := NoiseBound(epsilon)
	d := geometric(mathrand.Unit(bits), q, b) - geometric(mathrand.Unit(sub), q, b)
	if d > b {
		return b
	}
	if d < -b {
		return -b
	}
	return d
}

// NoisyCount perturbs a released count with the cell's draw, clamped at
// zero (a reporting surface never shows negative impressions).
func NoisyCount(cfg Config, key string, n int) int {
	v := n + Draw(cfg.Seed, key, cfg.Epsilon)
	if v < 0 {
		return 0
	}
	return v
}
