package supervisor

import (
	"context"
	"errors"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// ErrBusy is returned by a Cluster's TryRejoin when the fleet mutex is held
// (a delivery day in flight): the supervisor simply retries on a later pass,
// and the delivery path runs its own inline rejoin between day attempts.
var ErrBusy = errors.New("supervisor: fleet busy, rejoin deferred")

// Cluster is the supervisor's view of the coordinator. The supervisor owns
// WHEN to probe, relaunch, and rejoin; the cluster owns HOW — the state
// transfer and the digest gate. Admission is the shared health model's: a
// shard scored down is out of the fan-out the moment it is scored. (The
// interface points this way so the coordinator can import the health model
// without a package cycle.)
type Cluster interface {
	// Shards reports the fleet size.
	Shards() int
	// Health exposes the shared per-shard health model.
	Health() *FleetHealth
	// ProbeShard performs one liveness probe (GET /healthz) against a shard,
	// through the same transport the fan-out uses, so a network partition is
	// observed by probes exactly as by live traffic.
	ProbeShard(ctx context.Context, shard int) error
	// TryRejoin installs an admitted peer's replicated state on a
	// recovering shard, runs the cross-shard digest gate, and readmits it.
	// Returns ErrBusy (retry later) when a delivery day holds the fleet
	// mutex.
	TryRejoin(ctx context.Context, shard int) error
}

// Relauncher restarts a shard's process. Implementations are process-level
// (exec) or test fakes; nil means the supervisor only re-attaches to shards
// that come back on their own (an external process manager restarts them).
type Relauncher interface {
	Relaunch(shard int) error
}

// Config tunes the supervisor loop.
type Config struct {
	// ProbeInterval is the pause between passes over the fleet. Default
	// 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe. Default 2s.
	ProbeTimeout time.Duration
	// RelaunchAfter is how long a down shard may stay unreachable before the
	// supervisor forces a process relaunch (a dead process never answers; a
	// paused or partitioned one may come back on its own — SIGKILLing it
	// would turn a transient fault into a full restart). Default 3s.
	RelaunchAfter time.Duration
	// RelaunchBackoff is the minimum spacing between relaunch attempts for
	// one shard. Default 5s.
	RelaunchBackoff time.Duration
	// Clock injects time; nil is the system clock. The loop never reads the
	// wall clock directly, so tests drive it deterministically.
	Clock obs.Clock
	// Logf, when non-nil, receives supervision events worth an operator's
	// attention: quarantines, relaunches, and rejoin failures (which are
	// otherwise visible only as counters — a fleet stuck in recovering is
	// undiagnosable without the rejoin error text).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.RelaunchAfter <= 0 {
		c.RelaunchAfter = 3 * time.Second
	}
	if c.RelaunchBackoff <= 0 {
		c.RelaunchBackoff = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock
	}
	return c
}

// Supervisor drives failure detection and recovery for one fleet.
type Supervisor struct {
	cfg     Config
	cluster Cluster
	rel     Relauncher
	reg     *obs.Registry
	clock   obs.Clock

	lastRelaunch []time.Time
	stop         chan struct{}
	done         chan struct{}
}

// New builds a supervisor over the cluster. rel may be nil (re-attach only);
// reg may be nil (the health model's registry is NOT implied — pass the same
// one for a single /metrics surface).
func New(cluster Cluster, rel Relauncher, cfg Config, reg *obs.Registry) *Supervisor {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Supervisor{
		cfg:          cfg,
		cluster:      cluster,
		rel:          rel,
		reg:          reg,
		clock:        cfg.Clock,
		lastRelaunch: make([]time.Time, cluster.Shards()),
	}
}

// logf forwards to the configured event log, if any.
func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the probe loop in its own goroutine. Stop ends it.
func (s *Supervisor) Start(ctx context.Context) {
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			s.Step(ctx)
			s.clock.Sleep(s.cfg.ProbeInterval)
		}
	}()
}

// Stop ends the probe loop and waits for the in-flight pass to finish.
func (s *Supervisor) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// Step runs one supervision pass over every shard: probe, score, relaunch,
// rejoin. Exported so tests (and deterministic harnesses) can drive the loop
// without real time.
func (s *Supervisor) Step(ctx context.Context) {
	h := s.cluster.Health()
	for i := 0; i < s.cluster.Shards(); i++ {
		switch h.State(i) {
		case Healthy, Suspect:
			if h.Observe(i, s.probe(ctx, i)) == Down {
				s.logf("supervisor: shard %d unreachable, quarantined", i)
			}
		case Down:
			if s.probe(ctx, i) {
				if h.MarkRecovering(i) {
					s.rejoin(ctx, i)
				}
				continue
			}
			s.maybeRelaunch(i, h)
		case Recovering:
			if !s.probe(ctx, i) {
				// Came up, went away again (e.g. killed mid-recovery).
				h.MarkDown(i)
				continue
			}
			s.rejoin(ctx, i)
		}
	}
}

// probe sends one liveness probe, reporting alive (any HTTP answer counts;
// see FleetHealth.Observe for the scoring rationale — /healthz can only
// answer 200, so here any error means transport silence).
func (s *Supervisor) probe(ctx context.Context, shard int) bool {
	s.reg.Counter(MetricProbes).Inc()
	pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	if err := s.cluster.ProbeShard(pctx, shard); err != nil {
		s.reg.Counter(MetricProbeFailures).Inc()
		return false
	}
	return true
}

// maybeRelaunch forces a process restart for a shard that has been
// unreachable past the grace period, rate-limited per shard.
func (s *Supervisor) maybeRelaunch(shard int, h *FleetHealth) {
	if s.rel == nil {
		return
	}
	now := s.clock.Now()
	if since := h.DownSince(shard); since.IsZero() || now.Sub(since) < s.cfg.RelaunchAfter {
		return
	}
	if last := s.lastRelaunch[shard]; !last.IsZero() && now.Sub(last) < s.cfg.RelaunchBackoff {
		return
	}
	s.lastRelaunch[shard] = now
	s.reg.Counter(MetricRelaunches).Inc()
	s.logf("supervisor: relaunching shard %d (down %s)", shard, now.Sub(h.DownSince(shard)).Round(time.Millisecond))
	if err := s.rel.Relaunch(shard); err != nil {
		s.reg.Counter(MetricRelaunchFailures).Inc()
		s.logf("supervisor: relaunch shard %d failed: %v", shard, err)
	}
}

// rejoin drives one readmission attempt; the cluster does the state transfer
// and digest gate and marks the shard healthy itself on success.
func (s *Supervisor) rejoin(ctx context.Context, shard int) {
	err := s.cluster.TryRejoin(ctx, shard)
	switch {
	case err == nil:
		s.reg.Counter(MetricRejoins).Inc()
		s.logf("supervisor: shard %d rejoined", shard)
	case errors.Is(err, ErrBusy):
		// A delivery day holds the fleet; its own retry loop rejoins
		// recovering shards inline, or the next pass will.
	default:
		s.reg.Counter(MetricRejoinFailures).Inc()
		s.logf("supervisor: rejoin shard %d failed: %v", shard, err)
	}
}
