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

// MetricIdempotentEntries gauges the replay cache's size: the keyed
// responses it holds for replay.
const MetricIdempotentEntries = "http.idempotent_entries"

// maxIdemEntries bounds the replay cache. Past the cap, completed entries
// are evicted arbitrarily: an evicted key degrades to at-least-once for
// that one call, which is the pre-idempotency behavior, not corruption.
const maxIdemEntries = 100_000

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

// IdempotencyCache is the replay cache, the server-side half of
// exactly-once creates: the first request bearing a key executes, every
// later request with the same key replays the stored response byte for
// byte. Responses with 5xx statuses are returned to their waiters but NOT
// memoized, so a genuine server failure is re-executed (not replayed
// forever) when the client retries. A Resilience chain owns one and puts
// its replay routes behind it.
type IdempotencyCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
}

func newIdemCache() *IdempotencyCache {
	return &IdempotencyCache{entries: map[string]*idemEntry{}}
}

// middleware wraps a mutating endpoint with execute-once-per-key semantics.
// Requests without a key pass straight through.
func (ic *IdempotencyCache) middleware(reg *obs.Registry, next http.Handler) http.Handler {
	replays := reg.Counter(MetricIdempotentReplays)
	size := reg.Gauge(MetricIdempotentEntries)
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
		size.Set(int64(len(ic.entries)))
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
					ic.forget(key, size)
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
			ic.forget(key, size)
		}
		close(e.done)
		replayResponse(w, e)
	})
}

// forget drops a key so the next request bearing it executes fresh.
func (ic *IdempotencyCache) forget(key string, size *obs.Gauge) {
	ic.mu.Lock()
	delete(ic.entries, key)
	size.Set(int64(len(ic.entries)))
	ic.mu.Unlock()
}

// evictOneLocked removes one completed entry; the caller holds ic.mu.
func (ic *IdempotencyCache) evictOneLocked() {
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
