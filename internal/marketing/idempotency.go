package marketing

import (
	"net/http"
	"sync"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// IdempotencyKeyHeader carries the client's per-call idempotency key on
// mutating requests. A retried request reuses the key of the attempt it
// retries, which is what lets the server collapse them into one execution.
const IdempotencyKeyHeader = "Idempotency-Key"

// MetricIdempotentReplays counts mutating requests answered from the
// idempotency cache instead of re-executed.
const MetricIdempotentReplays = "http.idempotent_replays"

// maxIdemEntries bounds the replay cache. Past the cap, completed entries
// are evicted arbitrarily: an evicted key degrades to at-least-once for
// that one call, which is the pre-idempotency behavior, not corruption.
const maxIdemEntries = 100_000

// IdempotencyCache is the exported handle to the execute-once-per-key
// response cache, for HTTP frontends outside this package (the
// coordinator's router) that need the same semantics on their own mutating
// routes. The marketing server wires its private cache itself.
type IdempotencyCache struct {
	c *idemCache
}

// NewIdempotencyCache builds an empty cache.
func NewIdempotencyCache() *IdempotencyCache {
	return &IdempotencyCache{c: newIdemCache()}
}

// Middleware wraps a mutating endpoint with execute-once-per-key semantics:
// the first request bearing an Idempotency-Key executes, later ones replay
// the stored response byte for byte; 5xx responses are never memoized.
func (ic *IdempotencyCache) Middleware(reg *obs.Registry, next http.Handler) http.Handler {
	return ic.c.middleware(reg, next)
}

// idemEntry memoizes one execution's response. done closes when the first
// execution finishes; the response fields are immutable afterwards.
// Retry-After rides along with the status: a 503 whose header is dropped in
// replay would strip the client's backoff hint.
type idemEntry struct {
	done        chan struct{}
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// idemCache is the server-side half of exactly-once creates: the first
// request bearing a key executes, every later request with the same key
// replays the stored response byte for byte. Responses with 5xx statuses
// are returned to their waiters but NOT memoized, so a genuine server
// failure is re-executed (not replayed forever) when the client retries.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
}

func newIdemCache() *idemCache {
	return &idemCache{entries: map[string]*idemEntry{}}
}

// middleware wraps a mutating endpoint with execute-once-per-key semantics.
// Requests without a key pass straight through.
func (ic *idemCache) middleware(reg *obs.Registry, next http.Handler) http.Handler {
	replays := reg.Counter(MetricIdempotentReplays)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdempotencyKeyHeader)
		if key == "" {
			next.ServeHTTP(w, r)
			return
		}
		ic.mu.Lock()
		e, seen := ic.entries[key]
		if seen {
			ic.mu.Unlock()
			// Duplicate: wait out the original execution (it may still be
			// in flight) and replay its stored response.
			<-e.done
			replays.Inc()
			replayResponse(w, e)
			return
		}
		e = &idemEntry{done: make(chan struct{})}
		if len(ic.entries) >= maxIdemEntries {
			ic.evictOneLocked()
		}
		ic.entries[key] = e
		ic.mu.Unlock()

		rec := &obs.ResponseBuffer{}
		func() {
			// A panic escaping the inner stack (it shouldn't — the recovery
			// middleware sits below) must not strand waiters on a
			// never-closing channel.
			defer func() {
				if v := recover(); v != nil {
					e.status = http.StatusInternalServerError
					e.body = []byte(`{"error":"marketing: handler panicked"}`)
					e.contentType = "application/json"
					ic.forget(key)
					close(e.done)
					panic(v)
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		e.status = rec.Status()
		e.contentType = rec.Header().Get("Content-Type")
		e.retryAfter = rec.Header().Get("Retry-After")
		e.body = rec.Body
		if e.status >= 500 {
			// Don't memoize failures: the client's retry (same key) should
			// re-execute, not replay the failure.
			ic.forget(key)
		}
		close(e.done)
		replayResponse(w, e)
	})
}

// forget drops a key so the next request bearing it executes fresh.
func (ic *idemCache) forget(key string) {
	ic.mu.Lock()
	delete(ic.entries, key)
	ic.mu.Unlock()
}

// evictOneLocked removes one completed entry; the caller holds ic.mu.
func (ic *idemCache) evictOneLocked() {
	for k, e := range ic.entries {
		select {
		case <-e.done:
			delete(ic.entries, k)
			return
		default:
		}
	}
}

// replayResponse writes a stored response to the wire.
func replayResponse(w http.ResponseWriter, e *idemEntry) {
	if e.contentType != "" {
		w.Header().Set("Content-Type", e.contentType)
	}
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	w.WriteHeader(e.status)
	_, _ = w.Write(e.body)
}
