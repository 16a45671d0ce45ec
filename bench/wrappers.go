package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
)

// newBaseTransport is a private copy of the default HTTP transport, so an
// environment can close its keep-alive connections when it is torn down.
func newBaseTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// opOf names the API operation behind a request, by method and path.
func opOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/customaudiences":
		return "create_audience"
	case method == http.MethodPost && path == "/v1/campaigns":
		return "create_campaign"
	case method == http.MethodPost && path == "/v1/ads":
		return "create_ad"
	case method == http.MethodPost && path == "/v1/deliver":
		return "deliver"
	case method == http.MethodGet && path == "/v1/insights":
		return "insights"
	case strings.HasPrefix(path, "/v1/shard/delivery/"):
		return strings.TrimPrefix(path, "/v1/shard/delivery/") // begin, tick, finish, abort
	}
	return "other"
}

// series collects raw duration samples (milliseconds) and byte counts by
// name. It is shared by the wrappers of one run (client, server and shard
// goroutines); one mutex is plenty with one operation in flight.
type series struct {
	mu  sync.Mutex
	ms  map[string][]float64
	sum map[string]int64
	n   map[string]int64
	// byteTrace is the trace whose requests' body sizes are counted: the
	// first traced unit the handlers see, always the same scenario for a
	// seed, so the byte metrics repeat exactly however long the pass runs.
	// noTrace until then.
	byteTrace atomic.Int64
}

const noTrace = -1

func newSeries() *series {
	s := &series{ms: map[string][]float64{}, sum: map[string]int64{}, n: map[string]int64{}}
	s.byteTrace.Store(noTrace)
	return s
}

func (s *series) observe(name string, d time.Duration) {
	s.mu.Lock()
	s.ms[name] = append(s.ms[name], float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// add accumulates a count (bytes, cells) under name.
func (s *series) add(name string, v int64) {
	s.mu.Lock()
	s.sum[name] += v
	s.n[name]++
	s.mu.Unlock()
}

func (s *series) samples(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms[name]...)
}

// mean is the accumulated count under name per observation.
func (s *series) mean(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n[name] == 0 {
		return 0
	}
	return float64(s.sum[name]) / float64(s.n[name])
}

// reset drops everything observed so far.
func (s *series) reset() {
	s.mu.Lock()
	s.ms, s.sum, s.n = map[string][]float64{}, map[string]int64{}, map[string]int64{}
	s.mu.Unlock()
	s.byteTrace.Store(noTrace)
}

// timingTransport is the client-side seam (marketing.Client.SetTransport,
// coordinator.Config.Transport): it times each round trip under
// prefix+"."+op and, when the request's context or the fleet's current link
// places it in a trace, records a span and forwards the position to the
// server in linkHeader.
type timingTransport struct {
	base   http.RoundTripper
	prefix string
	ser    *series
	tr     *tracer
	// current, when set, supplies the trace position for requests whose
	// context carries none: the coordinator's backend calls do not inherit
	// the inbound request's context values, and fleet_2shard has one client,
	// so "the router request being served" is well defined.
	current *atomic.Pointer[link]
	// cpu also records each round trip's process CPU time, under
	// prefix+".cpu."+op: for a caller (the audit) that offers no place to
	// read the clock between its phases. It needs one request in flight.
	cpu bool
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opOf(req.Method, req.URL.Path)
	l, traced := fromLink(req.Context())
	if !traced && t.current != nil {
		if cur := t.current.Load(); cur != nil {
			l, traced = *cur, true
		}
	}
	var sp *openSpan
	if traced {
		sp = t.tr.begin(l.trace, l.parent, t.prefix+" "+op)
		if sp != nil {
			req = req.Clone(req.Context())
			req.Header.Set(linkHeader, link{trace: l.trace, parent: sp.id()}.header())
		}
	}
	var cpuStart float64
	if t.cpu {
		cpuStart = cpuSeconds()
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	sp.end()
	t.ser.observe(t.prefix+"."+op, d)
	if t.cpu {
		t.ser.observe(t.prefix+".cpu."+op, time.Duration((cpuSeconds()-cpuStart)*float64(time.Second)))
	}
	return resp, err
}

// timingHandler is the server-side seam: an http.Handler wrapped around
// Server.Handler() (or Router.Handler()). It times each request under
// prefix+"."+op and continues the caller's trace when linkHeader is present,
// placing the new position in the request context (for the persister wrapper)
// and, when current is set, publishing it for backend calls. For the requests
// of the series' byteTrace it also counts request and response body bytes.
func timingHandler(next http.Handler, prefix string, ser *series, tr *tracer, current *atomic.Pointer[link]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := opOf(r.Method, r.URL.Path)
		var sp *openSpan
		l, traced := parseLink(r.Header.Get(linkHeader))
		if traced {
			ser.byteTrace.CompareAndSwap(noTrace, l.trace)
			sp = tr.begin(l.trace, l.parent, prefix+" "+op)
			if sp != nil {
				here := link{trace: l.trace, parent: sp.id()}
				r = r.WithContext(withLink(r.Context(), here))
				if current != nil {
					current.Store(&here)
					defer current.Store(nil)
				}
			}
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(start)
		sp.end()
		ser.observe(prefix+"."+op, d)
		if traced && l.trace == ser.byteTrace.Load() {
			ser.add(prefix+".request_bytes."+op, max(r.ContentLength, 0))
			ser.add(prefix+".response_bytes."+op, cw.n)
		}
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// timingPersister is the durability seam (marketing.WithPersister): it times
// how long each mutating request waited at the WAL barrier.
type timingPersister struct {
	next marketing.Persister
	ser  *series
	tr   *tracer
}

func (p *timingPersister) Barrier(ctx context.Context) error {
	var sp *openSpan
	if l, ok := fromLink(ctx); ok {
		sp = p.tr.begin(l.trace, l.parent, "store barrier")
	}
	start := time.Now()
	err := p.next.Barrier(ctx)
	d := time.Since(start)
	sp.end()
	p.ser.observe("store.barrier", d)
	return err
}
