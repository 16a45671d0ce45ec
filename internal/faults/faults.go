// Package faults is a deterministic fault injector for the serving stack's
// outbound requests. Transport, an http.RoundTripper, disturbs a seeded
// fraction of a client's requests with the failure modes a long-running
// audit collection loop meets in the wild: injected latency, 429/5xx
// rejections (with Retry-After), connections dropped after the server acted,
// and slow answers. Its Gate partitions and slows links host by host.
//
// Faults are injected where a client sees them: on the client side of the
// wire, so the server under test runs exactly the code it serves with.
//
// Determinism is the point: every request consumes the next slot of a fault
// schedule that is a pure function of (seed, slot index), read through
// mathrand.Mix64, so two chaos runs with the same seed draw the identical
// schedule. Under concurrency the mapping of requests to slots follows send
// order, but the schedule itself — which slots fault, and how — is exactly
// reproducible, which is what makes a chaos soak a regression test instead
// of a dice roll.
//
// Rejections are answered without sending the request: the server never
// sees it. A drop sends the request and throws the answer away: the server's
// state HAS changed and the client cannot know. That is the adversarial case
// for clients: a retried POST whose first attempt was dropped double-creates
// unless the server deduplicates by idempotency key.
package faults

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/mathrand"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// Kind names one injectable failure mode.
type Kind string

// The failure modes.
const (
	// KindLatency delays the request before it is sent.
	KindLatency Kind = "latency"
	// KindReject429 answers 429 with a Retry-After header without sending
	// the request (rate limiting / load shedding by the remote).
	KindReject429 Kind = "429"
	// KindReject5xx answers 500, 502, or 503 without sending the request
	// (platform-side failure).
	KindReject5xx Kind = "5xx"
	// KindDrop sends the request, discards the answer and reports a cut
	// connection: the side effect happened, the client cannot know. This is
	// the fault that flushes out missing idempotency keys.
	KindDrop Kind = "drop"
	// KindSlow sends the request and holds the answer back before handing it
	// over whole. The request succeeds — eventually.
	KindSlow Kind = "slow"
)

// AllKinds lists every failure mode in schedule order.
func AllKinds() []Kind {
	return []Kind{KindLatency, KindReject429, KindReject5xx, KindDrop, KindSlow}
}

// ParseKinds parses a comma-separated kind list ("latency,drop"). The empty
// string and "all" select every kind.
func ParseKinds(s string) ([]Kind, error) {
	return ParseList(s, "faults: unknown fault kind", AllKinds())
}

// ParseList parses a comma-separated list of names drawn from all, the
// grammar the fault-kind and chaos-action flags share. The empty string and
// "all" select every name; an unknown one is an error that starts with what
// and lists the known names.
func ParseList[T ~string](s, what string, all []T) ([]T, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return all, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		name := T(strings.TrimSpace(part))
		if !slices.Contains(all, name) {
			known := make([]string, len(all))
			for i, k := range all {
				known[i] = string(k)
			}
			return nil, fmt.Errorf("%s %q (known: %s)", what, part, strings.Join(known, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// Config parameterizes an injector.
type Config struct {
	// Seed drives the fault schedule. Same seed, same schedule.
	Seed int64
	// Rate is the per-request fault probability in [0,1]. Zero disables
	// injection entirely.
	Rate float64
	// Kinds are the eligible failure modes; empty means all of them.
	Kinds []Kind
}

const (
	// maxLatency bounds injected latency: enough to reorder concurrent
	// requests without slowing a soak to a crawl.
	maxLatency = 3 * time.Millisecond
	// slowDelay is how long a slow answer is held back.
	slowDelay = 4 * time.Millisecond
	// retryAfter is the Retry-After header on injected 429s: "0", which
	// well-behaved clients treat as "retry at your own backoff".
	retryAfter = "0"
)

// exemptPaths lists the path prefixes never faulted: the operational
// endpoints, so chaos does not blind the observer.
var exemptPaths = []string{"/metrics", "/healthz"}

// Metric names recorded by the injector.
const (
	// MetricInjected counts injected faults; per-kind counts append
	// "|" + kind.
	MetricInjected = "faults.injected"
)

// Decision is one slot of the fault schedule: what (if anything) happens to
// the request that draws it.
type Decision struct {
	// Kind is the injected failure mode; empty means the request passes
	// clean.
	Kind Kind
	// Status is the injected status code for rejection kinds (429, 500,
	// 502, 503).
	Status int
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
}

// Injector is a cursor over the fault schedule: every request a Transport
// sends through it takes the next slot.
type Injector struct {
	cfg Config
	reg *obs.Registry
	seq atomic.Uint64
}

// New builds an injector. Registry may be nil; counters then go to a private
// registry.
func New(cfg Config, reg *obs.Registry) (*Injector, error) {
	if err := (Schedule{Rate: cfg.Rate}).Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = AllKinds()
	}
	return &Injector{cfg: cfg, reg: reg}, nil
}

// Schedule is the seeded map from a slot to a disturbance — the one place in
// the repository where that is decided. The request-fault schedule
// (Injector.ScheduleAt, a slot per request) and the chaos schedule
// (chaos.Schedule.At, a slot per tick) are both read through it. It has no
// state: At can be queried in any order, replayed and diffed.
type Schedule struct {
	Seed int64
	// Rate is the probability that an eligible slot disturbs, in [0,1].
	Rate float64
	// Gap makes only every Gap-th slot eligible; 0 and 1 mean every slot.
	Gap int
	// Kinds is how many kinds of disturbance At chooses among.
	Kinds int
	// Salted mixes the slot into the disturbance bits a second time. The
	// chaos schedule always has and the request-fault schedule never has; both
	// mappings are pinned as literals in their packages' tests, and this field
	// is what let one type replace the two without moving either.
	Salted bool
}

// Validate refuses a rate that is not a probability, NaN included.
func (s Schedule) Validate() error {
	if !(s.Rate >= 0 && s.Rate <= 1) {
		return fmt.Errorf("faults: rate %v outside [0,1]", s.Rate)
	}
	return nil
}

// At reports whether a slot disturbs and, if so, which of the Kinds and the
// bits its parameters are cut from. The kind is bits modulo Kinds, so callers
// take parameters from above the low byte.
func (s Schedule) At(slot uint64) (kind int, bits uint64, ok bool) {
	if s.Gap > 1 && slot%uint64(s.Gap) != 0 {
		return 0, 0, false
	}
	draw := mathrand.Mix64(s.Seed, slot)
	if mathrand.Unit(draw) >= s.Rate {
		return 0, 0, false
	}
	if s.Salted {
		draw ^= mathrand.SplitMix64(slot + 1)
	}
	bits = mathrand.SplitMix64(draw)
	return int(bits % uint64(s.Kinds)), bits, true
}

// ScheduleAt returns slot i of the fault schedule: a pure function of the
// injector's seed and configuration, independent of any requests already
// served. Reproducibility tests and replay tooling read the schedule
// directly through this method.
func (inj *Injector) ScheduleAt(i uint64) Decision {
	k, bits, ok := Schedule{Seed: inj.cfg.Seed, Rate: inj.cfg.Rate, Kinds: len(inj.cfg.Kinds)}.At(i)
	if !ok {
		return Decision{}
	}
	d := Decision{Kind: inj.cfg.Kinds[k]}
	switch d.Kind {
	case KindReject429:
		d.Status = http.StatusTooManyRequests
	case KindReject5xx:
		statuses := []int{http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable}
		d.Status = statuses[int((bits>>8)%uint64(len(statuses)))]
	case KindLatency:
		frac := float64((bits>>8)&0xffff) / 0xffff
		d.Latency = time.Duration(frac * float64(maxLatency))
	}
	return d
}

// next consumes the next schedule slot.
func (inj *Injector) next() Decision {
	return inj.ScheduleAt(inj.seq.Add(1) - 1)
}

// exempt reports whether a path is never faulted.
func (inj *Injector) exempt(path string) bool {
	for _, p := range exemptPaths {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}
