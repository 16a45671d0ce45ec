package obs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// Metric names used by the HTTP middleware. Endpoint-scoped metrics append
// "|" + route (e.g. "http.requests|POST /v1/ads") so the flat registry
// namespace stays parseable.
const (
	MetricRequests = "http.requests"
	MetricLatency  = "http.latency"
	MetricInFlight = "http.in_flight"
	// MetricPanicsRecovered counts handler panics converted to 500s by
	// Recover.
	MetricPanicsRecovered = "http.panics_recovered"
	// MetricRequestsShed counts requests rejected with 429 by LoadShed.
	MetricRequestsShed = "http.requests_shed"
	// MetricRequestTimeouts counts requests cut off with 503 by Timeout.
	MetricRequestTimeouts = "http.request_timeouts"
)

// statusRecorder captures the response status for the status-class counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ResponseBuffer is an http.ResponseWriter that holds a handler's whole
// response in memory, for middleware that must see it before any byte
// reaches the wire: the idempotency cache memoizes it. The zero value is ready to use; Status is
// 200 unless the handler wrote another.
type ResponseBuffer struct {
	header http.Header
	status int
	Body   []byte
}

func (b *ResponseBuffer) Header() http.Header {
	if b.header == nil {
		b.header = http.Header{}
	}
	return b.header
}

func (b *ResponseBuffer) WriteHeader(code int) { b.status = code }

func (b *ResponseBuffer) Write(p []byte) (int, error) {
	b.Body = append(b.Body, p...)
	return len(p), nil
}

// Status is the response status the handler set.
func (b *ResponseBuffer) Status() int {
	if b.status == 0 {
		return http.StatusOK
	}
	return b.status
}

// statusClass buckets a status code as "2xx", "4xx", etc.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// Instrument wraps a handler with per-endpoint request accounting: total
// requests, status-class counts, latency histogram, and the shared in-flight
// gauge. route is the stable endpoint label (the mux pattern); it is passed
// explicitly so the middleware works on any Go version and any router.
func Instrument(reg *Registry, route string, next http.Handler) http.Handler {
	requests := reg.Counter(MetricRequests + "|" + route)
	latency := reg.Histogram(MetricLatency + "|" + route)
	inFlight := reg.Gauge(MetricInFlight)
	total := reg.Counter(MetricRequests)
	classes := [4]*Counter{
		reg.Counter(MetricRequests + ".2xx|" + route),
		reg.Counter(MetricRequests + ".3xx|" + route),
		reg.Counter(MetricRequests + ".4xx|" + route),
		reg.Counter(MetricRequests + ".5xx|" + route),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w}
		// Accounting runs in a defer so a panicking handler (including the
		// deliberate http.ErrAbortHandler connection abort) cannot leak the
		// in-flight gauge or lose the request count.
		defer func() {
			inFlight.Dec()
			requests.Inc()
			total.Inc()
			latency.Observe(time.Since(start))
			switch statusClass(rec.status) {
			case "2xx":
				classes[0].Inc()
			case "3xx":
				classes[1].Inc()
			case "4xx":
				classes[2].Inc()
			case "5xx":
				classes[3].Inc()
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// Recover converts handler panics into 500 responses and counts them,
// instead of letting net/http kill the connection. http.ErrAbortHandler is
// re-panicked: it is the sanctioned way to abort a response and callers
// (like the fault injector's connection drop) rely on it reaching the
// server loop.
func Recover(reg *Registry, next http.Handler) http.Handler {
	panics := reg.Counter(MetricPanicsRecovered)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			panics.Inc()
			// Only answer if the handler had not started the response;
			// otherwise the wire is already corrupt and closing it is all
			// that is left.
			if rec.status == 0 {
				http.Error(rec, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// LoadShed rejects requests with 429 once more than maxInFlight are already
// being served, bounding queueing collapse under overload: shedding early
// keeps latency flat for the requests that are admitted. A Retry-After: 0
// header marks the rejection as immediately retryable (at the client's own
// backoff). maxInFlight <= 0 disables shedding.
func LoadShed(reg *Registry, maxInFlight int, next http.Handler) http.Handler {
	if maxInFlight <= 0 {
		return next
	}
	shed := reg.Counter(MetricRequestsShed)
	var inFlight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := inFlight.Add(1); n > int64(maxInFlight) {
			inFlight.Add(-1)
			shed.Inc()
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"obs: server over capacity, request shed"}`))
			return
		}
		defer inFlight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// BodyLimit caps the readable request body at maxBytes via
// http.MaxBytesReader: a handler reading past the cap gets a
// *http.MaxBytesError, which JSON decoders surface so the endpoint can
// answer 413. maxBytes <= 0 disables the cap.
func BodyLimit(maxBytes int64, next http.Handler) http.Handler {
	if maxBytes <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// Timeout caps a request's wall time at d: past the deadline the client
// gets a 503 (counted in MetricRequestTimeouts) while the handler finishes
// against a buffered, disconnected writer. Built on http.TimeoutHandler; the
// body is the marketing API's JSON error envelope. d <= 0 disables the cap.
func Timeout(reg *Registry, d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	timeouts := reg.Counter(MetricRequestTimeouts)
	inner := http.TimeoutHandler(next, d, `{"error":"obs: request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		inner.ServeHTTP(rec, r)
		if rec.status == http.StatusServiceUnavailable {
			timeouts.Inc()
		}
	})
}

// MetricsHandler serves the registry snapshot as JSON (the GET /metrics
// endpoint).
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// HealthzHandler serves a liveness check with the registry's uptime.
func HealthzHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(HealthResponse{
			Status:        "ok",
			UptimeSeconds: time.Since(reg.start).Seconds(),
		})
	})
}
