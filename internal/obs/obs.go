// Package obs is the serving-observability core: dependency-free counters,
// gauges, and fixed-bucket latency histograms collected in a named registry,
// plus net/http middleware that instruments a handler per endpoint. Both the
// marketing API server (server-side request metrics) and the load generator
// (client-side operation latencies) record into the same primitives, so the
// two sides of a load test report comparable numbers.
//
// All metric types are safe for concurrent use and allocation-free on the
// hot path: counters and gauges are single atomics, histograms are a fixed
// array of atomic bucket counts. Registration (name → metric) takes a lock
// only on first use of a name.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: exponential bounds from 50µs doubling up to
// ~26 minutes, plus an overflow bucket. 26 doublings keep the relative
// quantile error under a factor of 2 anywhere in the range, which is enough
// to rank p50/p90/p99 across PRs; the exact max is tracked separately.
const (
	histBuckets   = 26
	histBaseNanos = 50_000 // 50µs lower bound of the first bucket's upper edge
)

// bucketBound returns the upper bound (in nanoseconds) of bucket i.
func bucketBound(i int) int64 {
	return histBaseNanos << uint(i)
}

// Histogram is a fixed-bucket latency histogram with streaming count, sum,
// and max. Quantiles are estimated by log-interpolation inside the bucket
// that crosses the requested rank.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	idx := histBuckets // overflow
	for i := 0; i < histBuckets; i++ {
		if ns <= bucketBound(i) {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation (0 if empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts.
// Within the crossing bucket the estimate log-interpolates between the
// bucket's bounds; the overflow bucket reports the tracked max.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == histBuckets {
				return time.Duration(h.max.Load())
			}
			hi := float64(bucketBound(i))
			lo := hi / 2
			if i == 0 {
				lo = 0
			}
			frac := float64(rank-cum) / float64(n)
			est := lo + frac*(hi-lo)
			if m := float64(h.max.Load()); est > m {
				est = m
			}
			return time.Duration(est)
		}
		cum += n
	}
	return time.Duration(h.max.Load())
}

// HistogramSnapshot is the JSON form of a histogram's summary statistics.
// Latencies are reported in milliseconds, the unit the BENCH_*.json
// trajectory records.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// ms converts a duration to float milliseconds rounded to 3 decimals.
func ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
		MeanMs: ms(h.Mean()),
	}
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	start      time.Time
}

// NewRegistry returns an empty registry with the uptime clock started.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		start:      time.Now(),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// String renders the snapshot as sorted "name value" lines, for logs.
func (s Snapshot) String() string {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %-48s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge   %-48s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("latency %-48s n=%d p50=%.3fms p99=%.3fms max=%.3fms",
			name, h.Count, h.P50Ms, h.P99Ms, h.MaxMs))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
