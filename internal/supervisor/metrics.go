package supervisor

// Supervision metric names: the health model's and the coordinator's
// supervision pass's. Rejoins are counted once, as router.rejoins and
// router.rejoin_failures. Per-shard series use the registry's "name|label"
// convention with the static shardN label set.
const (
	// MetricShardState is the numeric health state per shard
	// (0 healthy, 1 suspect, 2 down, 3 recovering), labeled per shard.
	MetricShardState = "supervisor.shard.state"
	// MetricTransitions counts state transitions, labeled by target state.
	MetricTransitions = "supervisor.transitions"
	// MetricQuarantines counts exits from service: moves from healthy or
	// suspect to down, one per exit whichever path scored it.
	MetricQuarantines = "supervisor.quarantines"
	// MetricMTTR is the down-detection→verified-readmission latency.
	MetricMTTR = "supervisor.mttr"
	// MetricProbes counts liveness probes sent.
	MetricProbes = "supervisor.probes"
	// MetricProbeFailures counts probes with no HTTP answer.
	MetricProbeFailures = "supervisor.probe_failures"
	// MetricRelaunches counts shard process relaunches initiated.
	MetricRelaunches = "supervisor.relaunches"
	// MetricRelaunchFailures counts relaunches that could not start.
	MetricRelaunchFailures = "supervisor.relaunch_failures"
)
