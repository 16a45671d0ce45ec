// Package privacy is the response-privatization pipeline for the Insights
// API: the layer a real platform puts between its delivery accounting and
// what an advertiser (or auditor) is allowed to read. It composes two
// mechanisms:
//
//   - k-anonymity suppression: breakdown cells describing fewer than K
//     impressions are withheld, with complementary-cell suppression so a
//     withheld cell cannot be reconstructed by subtracting its released
//     siblings from the (released) total, and a minimum-audience gate that
//     withholds the entire breakdown when the ad reached fewer than K users;
//   - seeded differential-privacy noise: every released count is perturbed
//     by a bounded discrete-Laplace (two-sided geometric) draw with
//     parameter epsilon.
//
// Determinism is a design requirement, not an afterthought. The noise
// stream is a pure function (seed, cell key) → draw built on mathrand.Mix64,
// so privatizing the same report twice — or privatizing the merged
// cross-shard report on a router versus the single-process report on one
// platform — yields byte-identical output. That property is what lets the
// repo's differential digest suites, replay tooling, and adlint's detrand
// analyzer keep policing the serving stack with the privacy layer armed.
// Keying noise by cell content (not draw order) also means repeated queries
// of the same surface return the same noisy value, which closes the classic
// averaging attack against refreshed noise.
//
// The merge-then-privatize rule: in a sharded fleet, per-shard delivery
// tallies are partition slices of one logical report, so suppression and
// noise must be applied AFTER cross-shard summation — a per-shard K would
// over-suppress (every slice is smaller than the whole) and per-shard noise
// would add N draws instead of one. The coordinator owns privatization for
// a fleet; shards behind a router serve raw insights and the coordinator
// refuses to merge responses that arrive pre-privatized.
package privacy

import (
	"fmt"
	"math"
)

// Level selects the privatization regime for an insights surface.
type Level int

const (
	// LevelOff releases delivery reports untouched (the pre-privacy API).
	LevelOff Level = iota
	// LevelKAnon suppresses breakdown cells below the K threshold (with
	// complementary suppression and the minimum-audience gate) but releases
	// exact counts for everything that survives.
	LevelKAnon
	// LevelKAnonDP applies LevelKAnon suppression and then perturbs every
	// released count with seeded discrete-Laplace noise of parameter
	// Epsilon.
	LevelKAnonDP
)

// String names the level the way flags and reports spell it.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelKAnon:
		return "k-anon"
	case LevelKAnonDP:
		return "k-anon+dp"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config is one privatization policy. The zero value is LevelOff.
type Config struct {
	Level Level
	// K is the minimum released cell size and minimum audience (reach) for
	// any breakdown to be released at all. Ignored at LevelOff; 0 makes
	// suppression vacuous; never negative.
	K int
	// Epsilon is the per-count differential-privacy parameter at
	// LevelKAnonDP: each released count independently receives
	// discrete-Laplace noise with P(X = x) ∝ exp(-Epsilon·|x|). Smaller
	// epsilon means more noise; 0 (no noise) only below LevelKAnonDP.
	// Composition across distinct queries is out of scope (as it is on real
	// reporting surfaces).
	Epsilon float64
	// Seed fixes the noise stream. Same (Seed, cell key) → same draw.
	Seed int64
}

// FromFlags derives the policy a CLI requests: k = 0 and epsilon = 0 is off;
// epsilon = 0 is k-anonymity alone; otherwise k-anonymity plus DP noise (k
// may be 0, making the suppression half vacuous). Validate refuses the rest.
func FromFlags(k int, epsilon float64, seed int64) (Config, error) {
	cfg := Config{K: k, Epsilon: epsilon, Seed: seed}
	switch {
	case k == 0 && epsilon == 0:
		cfg.Level = LevelOff
	case epsilon == 0:
		cfg.Level = LevelKAnon
	default:
		cfg.Level = LevelKAnonDP
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate refuses an unknown level, a negative K, an Epsilon that is
// negative or not finite, and a zero Epsilon at LevelKAnonDP.
func (c Config) Validate() error {
	switch {
	case c.Level < LevelOff || c.Level > LevelKAnonDP:
		return fmt.Errorf("privacy: unknown Level %d", int(c.Level))
	case c.K < 0:
		return fmt.Errorf("privacy: K must be non-negative, got %d", c.K)
	case !(c.Epsilon >= 0) || math.IsInf(c.Epsilon, 1):
		return fmt.Errorf("privacy: Epsilon must be finite and non-negative, got %v", c.Epsilon)
	case c.Level == LevelKAnonDP && c.Epsilon == 0:
		return fmt.Errorf("privacy: k-anon+dp needs a positive Epsilon")
	}
	return nil
}

// Enabled reports whether Apply would change anything.
func (c Config) Enabled() bool { return c.Level != LevelOff }

// Cell is one breakdown cell of a delivery report, identified by its
// canonical key (the caller builds it from the cell's dimension values; the
// marketing layer uses "age=<v>|gender=<v>|region=<v>"). Keys must be
// unique within a report: the key IS the noise-stream coordinate.
type Cell struct {
	Key   string
	Count int
}

// Report is the privacy layer's view of one delivery report: the released
// totals, the hourly series, and the breakdown cells. Scope namespaces the
// noise stream (the marketing layer passes the ad ID) so two ads' identical
// cells draw independent noise.
type Report struct {
	Scope       string
	Impressions int
	Reach       int
	Clicks      int
	Hourly      []int
	Cells       []Cell

	// Privatized marks a report that already passed through Apply; it makes
	// privatization idempotent, so a misconfigured double-application (for
	// example a privatizing shard behind a privatizing router) cannot
	// suppress below K twice or stack two noise draws.
	Privatized bool
	// SuppressedCells counts the breakdown cells Apply withheld.
	SuppressedCells int
}

// clone deep-copies a report so Apply never aliases its input.
func (r *Report) clone() *Report {
	cp := *r
	cp.Hourly = append([]int(nil), r.Hourly...)
	cp.Cells = append([]Cell(nil), r.Cells...)
	return &cp
}

// Apply privatizes one report under the policy. It is a pure function of
// (cfg, report contents): no wall clock, no global RNG, no map iteration —
// cells are processed in sorted key order regardless of input order. The
// input is never mutated; at LevelOff or on an already-privatized report
// the input pointer is returned unchanged (idempotence).
//
// Pipeline order is gate → suppress → noise, all decisions on TRUE counts:
// a cell is released iff its exact count clears K, and only released
// counts are noised. Noise never re-triggers suppression (k-anonymity is a
// property of the underlying population, not of the noisy release).
func Apply(cfg Config, r *Report) *Report {
	if !cfg.Enabled() || r == nil || r.Privatized {
		return r
	}
	out := r.clone()
	out.Privatized = true

	// Minimum-audience gate: a report on fewer than K reached users
	// releases no breakdown at all (the real-platform behaviour that
	// motivates minimum campaign sizes in audit design).
	if out.Reach < cfg.K {
		out.SuppressedCells = len(out.Cells)
		out.Cells = nil
	} else {
		out.Cells, out.SuppressedCells = Suppress(cfg.K, out.Cells)
	}

	if cfg.Level == LevelKAnonDP {
		out.Impressions = NoisyCount(cfg, out.Scope+"|total|impressions", out.Impressions)
		out.Reach = NoisyCount(cfg, out.Scope+"|total|reach", out.Reach)
		out.Clicks = NoisyCount(cfg, out.Scope+"|total|clicks", out.Clicks)
		for i, n := range out.Hourly {
			out.Hourly[i] = NoisyCount(cfg, fmt.Sprintf("%s|hour|%d", out.Scope, i), n)
		}
		for i := range out.Cells {
			c := &out.Cells[i]
			c.Count = NoisyCount(cfg, out.Scope+"|cell|"+c.Key, c.Count)
		}
	}
	return out
}

// Suppress applies k-anonymity to a flat cell table whose exact total is
// released alongside it. Primary suppression withholds every cell with
// Count < k. Complementary suppression closes the subtraction attack: if
// exactly one cell was withheld, its value would equal total − sum(released
// cells), so the smallest released cell (ties broken by key) is withheld
// too — an attacker then recovers only the SUM of the two withheld cells.
// Input order is preserved in the released slice; the input is not mutated.
func Suppress(k int, cells []Cell) (released []Cell, suppressed int) {
	if k <= 0 || len(cells) == 0 {
		return append([]Cell(nil), cells...), 0
	}
	keep := make([]bool, len(cells))
	for i, c := range cells {
		keep[i] = c.Count >= k
		if !keep[i] {
			suppressed++
		}
	}
	if suppressed == 1 && len(cells)-suppressed >= 1 {
		// Complementary cell: the smallest released count, smallest key on
		// ties — a rule both sides of a differential test compute
		// identically from cell content alone.
		comp := -1
		for i, c := range cells {
			if !keep[i] {
				continue
			}
			if comp < 0 || c.Count < cells[comp].Count ||
				(c.Count == cells[comp].Count && c.Key < cells[comp].Key) {
				comp = i
			}
		}
		keep[comp] = false
		suppressed++
	}
	released = make([]Cell, 0, len(cells)-suppressed)
	for i, c := range cells {
		if keep[i] {
			released = append(released, c)
		}
	}
	return released, suppressed
}
