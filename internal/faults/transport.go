package faults

// Transport applies the Injector's schedule to every request it sends, and
// the Gate's per-host partitions and slowdowns — the chaos orchestrator's
// network-layer levers — before it. Latency and rejections happen before the
// request leaves; a drop executes the request for real, then discards the
// answer.
//
// Exempt paths (/metrics and /healthz) skip the seeded schedule but NOT the
// gate: an injected fault is a flaky network, which probes should see
// through, while a partition cuts the host off entirely — probes must fail
// too, or the supervisor would score a partitioned shard healthy.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// Gate is a runtime-switchable per-host network disturbance shared by a
// Transport across requests: full partition (every request errors without
// touching the wire) or added latency. Hosts are "host:port" as in the
// request URL.
type Gate struct {
	mu      sync.Mutex
	blocked map[string]bool
	slow    map[string]time.Duration
}

// NewGate builds an open gate (no hosts disturbed).
func NewGate() *Gate {
	return &Gate{blocked: map[string]bool{}, slow: map[string]time.Duration{}}
}

// SetPartition cuts a host off (or restores it).
func (g *Gate) SetPartition(host string, on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if on {
		g.blocked[host] = true
	} else {
		delete(g.blocked, host)
	}
}

// SetSlow adds per-request latency toward a host (0 restores full speed).
func (g *Gate) SetSlow(host string, d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if d <= 0 {
		delete(g.slow, host)
	} else {
		g.slow[host] = d
	}
}

// disturb reads the host's current treatment.
func (g *Gate) disturb(host string) (blocked bool, delay time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.blocked[host], g.slow[host]
}

// partitionError is the transport-level error for a gated-off host. It
// carries no HTTP status, so health scoring counts it as silence — a
// partitioned shard scores toward down exactly like a dead one.
type partitionError struct{ host string }

func (e *partitionError) Error() string {
	return fmt.Sprintf("faults: injected network partition to %s", e.host)
}

// Transport injects faults on the client side of every round trip. Base may
// be nil (http.DefaultTransport); inj and gate are each optional; every delay
// is slept on clock (nil is the system clock), so a slowed link under a
// manual clock costs virtual time.
type Transport struct {
	base  http.RoundTripper
	inj   *Injector
	gate  *Gate
	clock obs.Clock
}

// NewTransport builds the fault-injecting round tripper.
func NewTransport(base http.RoundTripper, inj *Injector, gate *Gate, clock obs.Clock) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	if clock == nil {
		clock = obs.SystemClock
	}
	return &Transport{base: base, inj: inj, gate: gate, clock: clock}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.gate != nil {
		blocked, delay := t.gate.disturb(req.URL.Host)
		if blocked {
			return nil, &partitionError{host: req.URL.Host}
		}
		if delay > 0 {
			t.clock.Sleep(delay)
		}
	}
	if t.inj == nil || t.inj.cfg.Rate == 0 || t.inj.exempt(req.URL.Path) {
		return t.base.RoundTrip(req)
	}
	d := t.inj.next()
	if d.Kind == "" {
		return t.base.RoundTrip(req)
	}
	t.inj.reg.Counter(MetricInjected).Inc()
	t.inj.reg.Counter(MetricInjected + "|" + string(d.Kind)).Inc()
	switch d.Kind {
	case KindLatency:
		t.clock.Sleep(d.Latency)
	case KindSlow:
		resp, err := t.base.RoundTrip(req)
		t.clock.Sleep(slowDelay)
		return resp, err
	case KindReject429:
		return synthesizeReject(req, d.Status, retryAfter), nil
	case KindReject5xx:
		return synthesizeReject(req, d.Status, ""), nil
	case KindDrop:
		// Execute for real, discard the answer: the backend applied the
		// request, the caller sees only a cut connection.
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) // best effort: a drained body lets the connection be reused
			_ = resp.Body.Close()          //adlint:allow walerr (response is discarded wholesale; the injected drop error below is the point)
		}
		return nil, fmt.Errorf("faults: injected connection drop to %s", req.URL.Host)
	}
	return t.base.RoundTrip(req)
}

// synthesizeReject fabricates a rejection response without a round trip, in
// the marketing API's JSON error envelope. An empty retryAfter omits the header.
func synthesizeReject(req *http.Request, status int, retryAfter string) *http.Response {
	body := fmt.Sprintf(`{"error":"faults: injected %d"}`, status)
	resp := &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
	if retryAfter != "" {
		resp.Header.Set("Retry-After", retryAfter)
	}
	return resp
}
