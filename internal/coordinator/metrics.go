package coordinator

// Router and supervision metric names: the operator's /metrics contract.
// Per-shard metrics use the registry's "name|label" convention — constant
// metric name, shard label after the separator — so cardinality stays fixed
// at the (small, static) shard count.
const (
	// MetricShardRequests counts backend calls, labeled per shard.
	MetricShardRequests = "router.shard.requests"
	// MetricShardErrors counts failed backend calls, labeled per shard.
	MetricShardErrors = "router.shard.errors"
	// MetricShardLatency is the per-call backend latency, labeled per shard.
	MetricShardLatency = "router.shard.latency"
	// MetricDays counts coordinated delivery days that committed.
	MetricDays = "router.delivery.days"
	// MetricDayRestarts counts delivery-day attempts that were abandoned and
	// re-run after a shard failure.
	MetricDayRestarts = "router.delivery.restarts"
	// MetricDayTicks counts committed coordinated ticks.
	MetricDayTicks = "router.delivery.ticks"
	// MetricDayLatency is the wall time of whole coordinated days.
	MetricDayLatency = "router.delivery.day"
	// MetricDayRetries counts delivery-day retry attempts (the bounded,
	// jittered loop in Deliver; equals restarts today, kept as the stable
	// operator-facing name).
	MetricDayRetries = "router.delivery.day_retries"

	// MetricRejoins counts shards readmitted through the rejoin protocol.
	MetricRejoins = "router.rejoins"
	// MetricRejoinFailures counts rejoin attempts that failed the handshake,
	// the state transfer, or the digest gate.
	MetricRejoinFailures = "router.rejoin_failures"
	// MetricRejoinUnverified counts readmissions with no shard in service
	// left to digest against (the shard that left service last, after a
	// whole-fleet outage).
	MetricRejoinUnverified = "router.rejoin_unverified"

	// metricShardState is the numeric health state per shard
	// (0 healthy, 1 suspect, 2 down, 3 recovering), labeled per shard.
	metricShardState = "supervisor.shard.state"
	// MetricTransitions counts state transitions, labeled by target state.
	MetricTransitions = "supervisor.transitions"
	// MetricQuarantines counts exits from service: moves from healthy or
	// suspect to down, one per exit whichever path scored it.
	MetricQuarantines = "supervisor.quarantines"
	// MetricMTTR is the down-detection→verified-readmission latency.
	MetricMTTR = "supervisor.mttr"
	// MetricProbes counts liveness probes sent.
	MetricProbes = "supervisor.probes"
	// metricProbeFailures counts probes with no HTTP answer.
	metricProbeFailures = "supervisor.probe_failures"
	// MetricRelaunches counts shard process relaunches initiated.
	MetricRelaunches = "supervisor.relaunches"
	// metricRelaunchFailures counts relaunches that could not start.
	metricRelaunchFailures = "supervisor.relaunch_failures"
)
