// Package faults is a deterministic fault injector for the serving stack.
// It wraps an http.Handler and disturbs a seeded fraction of requests with
// the failure modes a long-running audit collection loop meets in the wild:
// injected latency, 429/5xx rejections (with Retry-After), connections
// dropped mid-response, and slow-dripped bodies.
//
// Determinism is the point: every arriving request consumes the next slot of
// a fault schedule that is a pure function of (seed, slot index), so two
// chaos runs with the same seed draw the identical schedule. Under
// concurrency the mapping of requests to slots follows arrival order, but
// the schedule itself — which slots fault, and how — is exactly
// reproducible, which is what makes a chaos soak a regression test instead
// of a dice roll.
//
// The injector deliberately distinguishes pre-handler faults (latency, 429,
// 5xx: the request never reaches the application) from post-handler faults
// (drop, slow: the application state HAS changed and only the response is
// damaged). The post-handler drop is the adversarial case for clients: a
// retried POST whose first attempt was dropped after execution double-creates
// unless the server deduplicates by idempotency key.
package faults

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// Kind names one injectable failure mode.
type Kind string

// The failure modes.
const (
	// KindLatency delays the request before the handler runs.
	KindLatency Kind = "latency"
	// KindReject429 rejects the request with 429 and a Retry-After header
	// before the handler runs (rate limiting / load shedding by the remote).
	KindReject429 Kind = "429"
	// KindReject5xx rejects the request with 500, 502, or 503 before the
	// handler runs (platform-side failure).
	KindReject5xx Kind = "5xx"
	// KindDrop runs the handler, then truncates the response mid-body and
	// aborts the connection: the side effect happened, the client cannot
	// know. This is the fault that flushes out missing idempotency keys.
	KindDrop Kind = "drop"
	// KindSlow runs the handler, then drips the response out in small
	// delayed chunks. The request succeeds — eventually.
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
	// Clock is what injected latency and drip delays sleep on; nil is the
	// system clock.
	Clock obs.Clock
}

const (
	// maxLatency bounds injected latency: enough to reorder concurrent
	// requests without slowing a soak to a crawl.
	maxLatency = 3 * time.Millisecond
	// dripChunks is the number of pieces a slow response goes out in, with
	// dripDelay between them.
	dripChunks = 4
	dripDelay  = time.Millisecond
	// retryAfter is the Retry-After header on injected 429s: "0", which
	// well-behaved clients treat as "retry at your own backoff".
	retryAfter = "0"
)

// exemptPaths lists the path prefixes never faulted: the operational
// endpoints, so chaos does not blind the observer.
var exemptPaths = []string{"/metrics", "/healthz"}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock
	}
	return c
}

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

// Injector hands out fault decisions and wraps handlers.
type Injector struct {
	cfg Config
	reg *obs.Registry
	seq atomic.Uint64
}

// New builds an injector. Registry may be nil; counters then go to a private
// registry (Metrics exposes whichever is in use).
func New(cfg Config, reg *obs.Registry) (*Injector, error) {
	if err := (Schedule{Rate: cfg.Rate}).Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Injector{cfg: cfg.withDefaults(), reg: reg}, nil
}

// Metrics returns the registry the injector counts into.
func (inj *Injector) Metrics() *obs.Registry { return inj.reg }

// splitmix64 is the SplitMix64 finalizer: a statistically strong 64-bit
// mixer, used here to turn (seed, slot) into schedule bits with no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 maps (seed, slot) to schedule bits — the stateless seeded-schedule
// idiom every deterministic disturbance in this repo shares (the fault
// schedule here, the chaos action schedule in internal/chaos, the per-shard
// RNG streams in the delivery engine).
func Mix64(seed int64, slot uint64) uint64 {
	return splitmix64(uint64(seed) ^ splitmix64(slot))
}

// Draw is slot `slot` of a seeded schedule: its bits, and the coin a schedule
// compares with its rate — the top 53 bits as a uniform float in [0,1).
func Draw(seed int64, slot uint64) (bits uint64, coin float64) {
	bits = Mix64(seed, slot)
	return bits, float64(bits>>11) / (1 << 53)
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

// Validate refuses a rate that is not a probability.
func (s Schedule) Validate() error {
	if s.Rate < 0 || s.Rate > 1 {
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
	draw, coin := Draw(s.Seed, slot)
	if coin >= s.Rate {
		return 0, 0, false
	}
	if s.Salted {
		draw ^= splitmix64(slot + 1)
	}
	bits = splitmix64(draw)
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

// Middleware wraps next with fault injection. Rejection faults answer with
// the marketing API's JSON error envelope so clients exercise their normal
// error decoding.
func (inj *Injector) Middleware(next http.Handler) http.Handler {
	if inj.cfg.Rate == 0 {
		return next
	}
	injected := inj.reg.Counter(MetricInjected)
	perKind := map[Kind]*obs.Counter{}
	for _, k := range AllKinds() {
		perKind[k] = inj.reg.Counter(MetricInjected + "|" + string(k))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inj.exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		d := inj.next()
		if d.Kind == "" {
			next.ServeHTTP(w, r)
			return
		}
		injected.Inc()
		perKind[d.Kind].Inc()
		switch d.Kind {
		case KindLatency:
			inj.cfg.Clock.Sleep(d.Latency)
			next.ServeHTTP(w, r)
		case KindReject429:
			w.Header().Set("Retry-After", retryAfter)
			writeInjectedError(w, d.Status)
		case KindReject5xx:
			writeInjectedError(w, d.Status)
		case KindDrop:
			inj.drop(w, r, next)
		case KindSlow:
			inj.drip(w, r, next)
		}
	})
}

// writeInjectedError emits the API error envelope for an injected rejection.
func writeInjectedError(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":"faults: injected %d"}`, status)
}

// drop executes the handler fully (its side effects are real), then writes
// only half the response and aborts the connection. The declared
// Content-Length covers the full body, so the client observes a truncated
// read, not a short-but-valid response.
func (inj *Injector) drop(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := &obs.ResponseBuffer{}
	next.ServeHTTP(rec, r)
	copyHeader(w.Header(), rec.Header())
	w.Header().Set("Content-Length", strconv.Itoa(len(rec.Body)))
	w.WriteHeader(rec.Status())
	if n := len(rec.Body) / 2; n > 0 {
		_, _ = w.Write(rec.Body[:n])
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// drip executes the handler, then releases the buffered body in delayed
// chunks. The response completes; it is just slow.
func (inj *Injector) drip(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := &obs.ResponseBuffer{}
	next.ServeHTTP(rec, r)
	copyHeader(w.Header(), rec.Header())
	w.WriteHeader(rec.Status())
	body := rec.Body
	chunk := (len(body) + dripChunks - 1) / dripChunks
	if chunk == 0 {
		chunk = 1
	}
	for len(body) > 0 {
		n := chunk
		if n > len(body) {
			n = len(body)
		}
		if _, err := w.Write(body[:n]); err != nil {
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		body = body[n:]
		if len(body) > 0 {
			inj.cfg.Clock.Sleep(dripDelay)
		}
	}
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
