// Package population models the platform's user base. Users are derived
// from voter registries via a probabilistic account-match model (not every
// voter has an account, and match rates differ by demographic — §3.2's
// caveat that "each demographic group may not have the same percentage of
// voters with Facebook accounts"), carry per-user activity rates ("may not
// have the same level of Facebook activity"), and expose the ground-truth
// engagement behaviour that the platform's machine-learned delivery
// optimization is trained on (package platform).
//
// The user store is columnar (see Columns): parallel attribute slices
// indexed by dense user ID, read through the UserView accessor. The layout
// is what lets a multi-million-user world fit in memory; the differential
// suite in legacy_oracle_test.go pins it byte-identical to the struct-based
// builder it replaced.
//
// The behaviour model is where documented population-level engagement
// patterns enter the simulation — homophily, women's higher engagement with
// child imagery, older men's engagement with images of young women, and
// industry workforce composition. The delivery algorithm never reads these
// parameters; it only sees logged engagement outcomes, mirroring how the
// real platform's biases arise from its training data (§2.1).
package population

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// HashPII computes the normalized PII hash used to match uploaded audience
// lists to accounts: lowercase, trimmed, SHA-256 over name|address|zip,
// hex-encoded. This is the advertiser-side upload path, exactly as real
// PII-matching pipelines hash client-side before transmission.
//
// It is hashPIIRaw — the digest the platform-side account records store —
// in hex, so the two sides cannot drift apart; FuzzHashPII pins the shared
// normalizer to a strings.ToLower/TrimSpace oracle on arbitrary input.
func HashPII(first, last, address, zip string) string {
	var scratch [128]byte
	key, _ := hashPIIRaw(first, last, address, zip, scratch[:0])
	var dst [2 * len(key)]byte
	hex.Encode(dst[:], key[:])
	return string(dst[:])
}

// appendNormalized appends lowercase(trimmed(s)) to buf without allocating.
// The field is copied in one move and its ASCII bytes lower-cased in place;
// from the first byte that is not ASCII, per-rune unicode.ToLower rewrites
// the rest. Both match strings.ToLower over strings.TrimSpace byte for byte
// (ToLower has the same ASCII fast path), including the U+FFFD replacement
// of invalid UTF-8.
func appendNormalized(buf []byte, s string) []byte {
	for len(s) > 0 {
		r, n := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s)
		}
		if !isSpace(r) {
			break
		}
		s = s[n:]
	}
	for len(s) > 0 {
		r, n := rune(s[len(s)-1]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeLastRuneInString(s)
		}
		if !isSpace(r) {
			break
		}
		s = s[:len(s)-n]
	}
	n := len(buf)
	buf = append(buf, s...)
	field := buf[n:]
	for i, c := range field {
		if c >= utf8.RuneSelf {
			buf = buf[:n+i]
			for _, r := range s[i:] {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			}
			return buf
		}
		if 'A' <= c && c <= 'Z' {
			field[i] = c + 'a' - 'A'
		}
	}
	return buf
}

// isSpace is unicode.IsSpace with the ASCII test inlined.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || uint32(r)-'\t' <= '\r'-'\t'
	}
	return unicode.IsSpace(r)
}

// hashPIIRaw is the account-side PII hash: the same normalization contract
// as HashPII, producing the raw 32-byte digest the pii column stores. The
// normalized message is written into scratch, which is returned for the
// next call.
func hashPIIRaw(first, last, address, zip string, scratch []byte) ([32]byte, []byte) {
	buf := appendNormalized(scratch[:0], first)
	buf = append(buf, '|')
	buf = appendNormalized(buf, last)
	buf = append(buf, '|')
	buf = appendNormalized(buf, address)
	buf = append(buf, '|')
	buf = appendNormalized(buf, zip)
	return sha256.Sum256(buf), buf
}

// Config controls population construction.
type Config struct {
	Seed int64
	// BaseMatchRate is the probability a voter has a matchable account,
	// before demographic adjustments, in (0,1]. 0 means 0.65.
	BaseMatchRate float64
	// TravelProb is the per-impression out-of-state probability, in [0,1].
	// 0 means 0.004, consistent with the <1% out-of-state delivery §3.3
	// reports for state-level splits.
	TravelProb float64
	// FLActivityBoost multiplies the activity of Florida users: finite and
	// above 0, where 0 means 1. Setting it away from 1 injects a location
	// confounder; the A4 ablation uses it to show the reversed-copy
	// aggregation cancels such confounders (§3.3).
	FLActivityBoost float64
}

// meanSessions is the mean sessions/day across the population.
const meanSessions float64 = 6

// resolve gives each zero field its stated meaning and refuses a setting
// outside the range its comment gives, naming the field.
func (c *Config) resolve() error {
	c.BaseMatchRate = cmp.Or(c.BaseMatchRate, 0.65)
	c.TravelProb = cmp.Or(c.TravelProb, 0.004)
	c.FLActivityBoost = cmp.Or(c.FLActivityBoost, 1)
	switch {
	case !(c.BaseMatchRate > 0 && c.BaseMatchRate <= 1):
		return fmt.Errorf("population: BaseMatchRate %v outside (0,1]", c.BaseMatchRate)
	case !(c.TravelProb >= 0 && c.TravelProb <= 1):
		return fmt.Errorf("population: TravelProb %v outside [0,1]", c.TravelProb)
	case !(c.FLActivityBoost > 0) || math.IsInf(c.FLActivityBoost, 1):
		return fmt.Errorf("population: FLActivityBoost %v is not a finite factor above 0", c.FLActivityBoost)
	}
	return nil
}

// Population is the set of platform users in columnar form, indexed by PII
// digest for Custom Audience matching. It is immutable once built, so any
// number of goroutines read it without a lock.
type Population struct {
	cols Columns
	// index maps the pii column's digests to user IDs: the builder's
	// dup-detection table, which holds every kept row (builder.finish).
	index *piiIndex
}

// Len returns the number of users.
func (p *Population) Len() int { return p.cols.n }

// View returns the accessor for user i. Views are values; creating one does
// not allocate.
func (p *Population) View(i int) UserView { return UserView{c: &p.cols, i: int32(i)} }

// MemoryBytes reports the retained storage of the columns plus the PII
// index — the quantity the bytes-per-user budget and BENCH_population
// measure.
func (p *Population) MemoryBytes() int64 { return p.cols.bytes() + p.index.bytes() }

// PIIKey is a raw PII digest: what a 64-character hex hash on the wire
// decodes to, and what the pii column stores.
type PIIKey = [32]byte

// hexNibble maps an ASCII byte to its hex value, 0xff for a non-hex byte.
var hexNibble = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := byte(0); i < 10; i++ {
		t['0'+i] = i
	}
	for i := byte(0); i < 6; i++ {
		t['a'+i], t['A'+i] = 10+i, 10+i
	}
	return t
}()

// DecodePIIKey decodes a 64-character hex PII hash, in either case as
// encoding/hex accepts it, without allocating. ok is false for any other
// input: such a hash matches no account.
func DecodePIIKey[S string | []byte](hash S) (key PIIKey, ok bool) {
	if len(hash) != 2*len(key) {
		return key, false
	}
	var bad byte
	for i := range key {
		hi, lo := hexNibble[hash[2*i]], hexNibble[hash[2*i+1]]
		bad |= hi | lo
		key[i] = hi<<4 | lo
	}
	return key, bad&0xf0 == 0
}

// MatchPII is the audience-upload match: the IDs of the users the keys
// identify, in key order, each user once however often its key repeats;
// keys that identify nobody are skipped.
func (p *Population) MatchPII(keys []PIIKey) []int32 {
	seen := make([]uint64, (p.cols.n+63)/64)
	members := make([]int32, 0, len(keys))
	for i := range keys {
		id := p.index.lookup(&keys[i], p.cols.pii)
		if id < 0 || seen[id>>6]&(1<<(id&63)) != 0 {
			continue
		}
		seen[id>>6] |= 1 << (id & 63)
		members = append(members, id)
	}
	return members
}

// Build derives users from one or more voter registries. Match rates and
// activity vary by demographic: younger voters are more likely to have an
// account, while accounts held by older users show somewhat higher daily
// activity — two of the mundane asymmetries that make the paper refuse to
// expect 50/50 delivery even for balanced targeting (§5.2, footnote 5).
//
// Build consumes one RNG draw sequence per accepted-or-rejected record in
// registry order; the legacy-oracle differential suite pins every produced
// field to the struct-era builder's output.
func Build(cfg Config, registries ...*voter.Registry) (*Population, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	if len(registries) == 0 {
		return nil, fmt.Errorf("population: no registries")
	}
	voters := 0
	for _, reg := range registries {
		voters += len(reg.Records)
	}
	b := newBuilder(cfg, voters, probeBlock)
	for _, reg := range registries {
		for i := range reg.Records {
			if err := b.consume(&reg.Records[i]); err != nil {
				return nil, err
			}
		}
	}
	return b.finish()
}

// aged is a voter the match model reads: a registry record or a generator
// draw.
type aged interface{ AgeBucket() demo.AgeBucket }

// matchRateFactor adjusts account-match probability by demographic: account
// ownership declines with age, mildly.
func matchRateFactor(v aged) float64 {
	switch v.AgeBucket() {
	case demo.Age18to24:
		return 1.15
	case demo.Age25to34:
		return 1.12
	case demo.Age35to44:
		return 1.08
	case demo.Age45to54:
		return 1.0
	case demo.Age55to64:
		return 0.92
	default:
		return 0.80
	}
}

// activityFactor adjusts daily sessions by demographic: among account
// holders, older users browse somewhat more.
func activityFactor(v aged) float64 {
	switch v.AgeBucket() {
	case demo.Age18to24:
		return 0.85
	case demo.Age25to34:
		return 0.9
	case demo.Age35to44:
		return 0.95
	case demo.Age45to54:
		return 1.05
	case demo.Age55to64:
		return 1.15
	default:
		return 1.25
	}
}

// lognormalish turns a standard normal draw into a positive multiplicative
// noise term with mean 1 (lognormal with σ = 0.3, mean-corrected).
func lognormalish(z float64) float64 {
	return math.Exp(0.3*z - 0.045)
}
