package coordinator

// The supervision pass: probe every shard, score it, relaunch one that has
// stayed down past its grace period, and rejoin one that answers again. It
// lives beside the fleet mutex it needs for a rejoin, so a pass that finds a
// delivery day holding the mutex skips the rejoin and leaves the shard
// recovering; the day's own retry preamble, or the next pass, rejoins it.

import (
	"context"
	"time"
)

// Start launches the supervision loop in its own goroutine: a pass, then
// ProbeInterval on the coordinator's clock, until ctx ends or Stop is called.
func (c *Coordinator) Start(ctx context.Context) {
	if c.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			c.Step(ctx)
			c.clock.Sleep(c.cfg.ProbeInterval)
		}
	}()
}

// Stop ends the supervision loop and waits for the pass in flight. Stopping
// a loop that is not running does nothing.
func (c *Coordinator) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}

// Step runs one supervision pass over every shard in shard order: a shard
// in service is probed and scored; one out of service is recovered, and
// rejoined if it answers and no delivery day holds the fleet mutex — a day
// can hold it for minutes, so the pass goes on probing rather than wait, and
// the shard stays recovering. Harnesses that own time (the simulated fleet,
// tests) call Step instead of Start.
func (c *Coordinator) Step(ctx context.Context) {
	for i := range c.shards {
		if c.health.state(i).InService() {
			if c.health.observe(i, c.probe(ctx, i)) == Down {
				c.logf("supervisor: shard %d unreachable, quarantined", i)
			}
			continue
		}
		switch answered, wasDown := c.recoverShard(ctx, i); {
		case answered && c.mu.TryLock():
			c.rejoin(ctx, i)
			c.mu.Unlock()
		case !answered && wasDown:
			c.maybeRelaunch(i)
		}
	}
}

// recoverShard probes a shard out of service and moves it on: a down shard
// that answers becomes recovering, a recovering one that is silent again
// goes back to down. It reports whether the shard answered, and so may
// rejoin, and whether it was down. Deliver's retry preamble runs it too.
func (c *Coordinator) recoverShard(ctx context.Context, shard int) (answered, wasDown bool) {
	wasDown = c.health.state(shard) == Down
	answered = c.probe(ctx, shard)
	switch {
	case answered && wasDown:
		c.health.markRecovering(shard)
	case !answered && !wasDown:
		// Came up, went away again (e.g. killed mid-recovery).
		c.health.markDown(shard)
	}
	return answered, wasDown
}

// rejoin runs the rejoin protocol under the fleet mutex, which the caller
// holds, and logs the outcome: the rejoin error is the only diagnosis of a
// shard stuck in recovering.
func (c *Coordinator) rejoin(ctx context.Context, shard int) {
	if err := c.rejoinLocked(ctx, shard); err != nil {
		c.logf("supervisor: rejoin shard %d failed: %v", shard, err)
		return
	}
	c.logf("supervisor: shard %d rejoined", shard)
}

// probe sends one unretried GET /healthz through the fan-out's transport, so
// a partition cuts probes as it cuts live traffic, and reports whether the
// shard answered. /healthz can only answer 200: any error is silence.
func (c *Coordinator) probe(ctx context.Context, shard int) bool {
	c.reg.Counter(MetricProbes).Inc()
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	if err := c.shards[shard].client.Healthz(pctx); err != nil {
		c.reg.Counter(metricProbeFailures).Inc()
		return false
	}
	return true
}

// maybeRelaunch restarts the process of a shard that has been down for
// RelaunchAfter, at most once per RelaunchBackoff. A paused or partitioned
// shard may come back on its own inside the grace period; killing it would
// turn a transient fault into a full restart.
func (c *Coordinator) maybeRelaunch(shard int) {
	if c.cfg.Relauncher == nil {
		return
	}
	now := c.clock.Now()
	since := c.health.downSince(shard)
	if since.IsZero() || now.Sub(since) < c.cfg.RelaunchAfter {
		return
	}
	if last := c.lastRelaunch[shard]; !last.IsZero() && now.Sub(last) < c.cfg.RelaunchBackoff {
		return
	}
	c.lastRelaunch[shard] = now
	c.reg.Counter(MetricRelaunches).Inc()
	c.logf("supervisor: relaunching shard %d (down %s)", shard, now.Sub(since).Round(time.Millisecond))
	if err := c.cfg.Relauncher.Relaunch(shard); err != nil {
		c.reg.Counter(metricRelaunchFailures).Inc()
		c.logf("supervisor: relaunch shard %d failed: %v", shard, err)
	}
}

// logf forwards to Config.Logf, if set.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
