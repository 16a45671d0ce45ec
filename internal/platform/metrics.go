package platform

import (
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// Delivery-phase metric names. Constant names keep the registry cardinality
// fixed (adlint obsreg); each name is used with exactly one metric kind.
const (
	// MetricDeliveryDays counts completed RunDay calls.
	MetricDeliveryDays = "platform.delivery.days"
	// MetricDeliveryTicks counts simulated pacing ticks.
	MetricDeliveryTicks = "platform.delivery.ticks"
	// MetricDeliveryAuctions counts ad slots auctioned (user sessions).
	MetricDeliveryAuctions = "platform.delivery.auctions"
	// MetricDeliveryImpressions counts impressions served to audit ads.
	MetricDeliveryImpressions = "platform.delivery.impressions"
	// MetricDeliveryDayLatency is the wall-time histogram of whole days.
	MetricDeliveryDayLatency = "platform.delivery.day"
	// MetricDeliveryMergeLatency is the per-day total time spent in tick
	// barrier commits (multi-shard in-process days only).
	MetricDeliveryMergeLatency = "platform.delivery.merge"
	// MetricDeliveryTicksPerSec is the last run's tick throughput.
	MetricDeliveryTicksPerSec = "platform.delivery.ticks_per_sec"
	// MetricDeliveryAuctionsPerSec is the last run's auction throughput.
	MetricDeliveryAuctionsPerSec = "platform.delivery.auctions_per_sec"
	// MetricDeliveryWorkers is the last run's effective worker count.
	MetricDeliveryWorkers = "platform.delivery.workers"
)

// SetObserver installs a metrics registry and clock for delivery-phase
// instrumentation. A nil clock defaults to the system clock; a nil registry
// disables instrumentation entirely (the default), which also keeps every
// clock read out of the engine — timing is observational and can never leak
// into delivery output, which is a pure function of (ads, seed, workers).
func (p *Platform) SetObserver(reg *obs.Registry, clock obs.Clock) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obsReg = reg
	if clock == nil {
		clock = obs.SystemClock
	}
	p.clock = clock
}

// observeDelivery records one completed day's delivery metrics; no-op
// without a registry.
func (p *Platform) observeDelivery(start time.Time, ticks, auctions, impressions int64, workers int, merge time.Duration) {
	if p.obsReg == nil {
		return
	}
	elapsed := p.clock.Now().Sub(start)
	reg := p.obsReg
	reg.Counter(MetricDeliveryDays).Inc()
	reg.Counter(MetricDeliveryTicks).Add(ticks)
	reg.Counter(MetricDeliveryAuctions).Add(auctions)
	reg.Counter(MetricDeliveryImpressions).Add(impressions)
	reg.Histogram(MetricDeliveryDayLatency).Observe(elapsed)
	if merge > 0 {
		reg.Histogram(MetricDeliveryMergeLatency).Observe(merge)
	}
	reg.Gauge(MetricDeliveryWorkers).Set(int64(workers))
	if secs := elapsed.Seconds(); secs > 0 {
		reg.Gauge(MetricDeliveryTicksPerSec).Set(int64(float64(ticks) / secs))
		reg.Gauge(MetricDeliveryAuctionsPerSec).Set(int64(float64(auctions) / secs))
	}
}
