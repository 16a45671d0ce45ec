package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1..1000 ms uniformly: p50≈500ms, p99≈990ms, max=1000ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != time.Second {
		t.Errorf("max = %v", h.Max())
	}
	p50 := h.Quantile(0.5)
	// Bucketed estimate: the true value is 500ms; accept the bucket's range.
	if p50 < 200*time.Millisecond || p50 > 900*time.Millisecond {
		t.Errorf("p50 = %v, want ≈500ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 800*time.Millisecond || p99 > time.Second {
		t.Errorf("p99 = %v, want ≈990ms", p99)
	}
	if q := h.Quantile(1); q != time.Second {
		t.Errorf("q=1 → %v, want max", q)
	}
	mean := h.Mean()
	if mean < 490*time.Millisecond || mean > 511*time.Millisecond {
		t.Errorf("mean = %v, want ≈500.5ms", mean)
	}
	snap := h.Snapshot()
	if snap.Count != 1000 || snap.MaxMs != 1000 {
		t.Errorf("snapshot: %+v", snap)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(2 * time.Hour) // beyond the last bucket bound
	if got := h.Quantile(0.5); got != 2*time.Hour {
		t.Errorf("overflow quantile = %v, want 2h", got)
	}
	h.Observe(-time.Second) // clamped to 0
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				r.Counter(fmt.Sprintf("own-%d", i)).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 16*200 {
		t.Errorf("shared counter = %d, want %d", got, 16*200)
	}
	if got := r.Histogram("h").Count(); got != 16*200 {
		t.Errorf("histogram count = %d, want %d", got, 16*200)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 17 { // "shared" plus 16 "own-i"
		t.Errorf("counters in snapshot: %d, want 17", len(snap.Counters))
	}
	if snap.String() == "" {
		t.Error("snapshot string should not be empty")
	}
}

func TestInstrumentMiddleware(t *testing.T) {
	reg := NewRegistry()
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi")) // implicit 200
	})
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	mux := http.NewServeMux()
	mux.Handle("/ok", Instrument(reg, "GET /ok", ok))
	mux.Handle("/bad", Instrument(reg, "GET /bad", bad))
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/healthz", HealthzHandler(reg))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/bad")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := reg.Counter(MetricRequests + "|GET /ok").Value(); got != 3 {
		t.Errorf("GET /ok requests = %d, want 3", got)
	}
	if got := reg.Counter(MetricRequests + ".2xx|GET /ok").Value(); got != 3 {
		t.Errorf("GET /ok 2xx = %d, want 3", got)
	}
	if got := reg.Counter(MetricRequests + ".4xx|GET /bad").Value(); got != 1 {
		t.Errorf("GET /bad 4xx = %d, want 1", got)
	}
	if got := reg.Counter(MetricRequests).Value(); got != 4 {
		t.Errorf("total requests = %d, want 4", got)
	}
	if got := reg.Gauge(MetricInFlight).Value(); got != 0 {
		t.Errorf("in-flight after all done = %d, want 0", got)
	}
	if got := reg.Histogram(MetricLatency + "|GET /ok").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[MetricRequests+"|GET /ok"] != 3 {
		t.Errorf("metrics endpoint counters: %+v", snap.Counters)
	}
	if snap.Histograms[MetricLatency+"|GET /ok"].Count != 3 {
		t.Errorf("metrics endpoint histograms: %+v", snap.Histograms)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.UptimeSeconds < 0 {
		t.Errorf("healthz: %+v", health)
	}
}
