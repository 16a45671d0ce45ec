package platform

// The coordinated day session: one shard backend's side of the cross-process
// delivery protocol (internal/coordinator drives the other side). A session
// is the second driver of the shard step RunDayWorkers drives: it owns one
// shard of the day — the live shard of a 1-shard day, a frozen one otherwise
// — and steps it one tick at a time under a barrier that runs elsewhere:
//
//	Begin   resolve the ad set, initialize pacing, report the day plan;
//	Tick    apply the coordinator's frozen (pacing, spent, cap) snapshot,
//	        run phase 2 for this shard, report accrued spend;
//	Finish  install the day's stats with the coordinator's authoritative
//	        spend, complete the ads, emit the durable mutation;
//	Abort   discard everything.
//
// Nothing a session does before Finish touches durable state: counts live in
// the shard's accumulators, served-log rows stay in its buffer, no mutation
// is emitted. Nothing else moves the serve log while a session is open
// (RunDayWorkers and Retrain refuse with ErrSessionActive), so the shard
// buffers only the rows the log has room for at Begin, which are exactly the
// rows Finish can flush.
// A shard process that dies mid-day therefore loses the session entirely and
// cleanly — the coordinator detects the conflict, aborts the day everywhere,
// and re-runs it; determinism makes the re-run byte-identical.
//
// Sessions are deliberately in-memory and single: one coordinator owns a
// backend. Begin replaces any existing session (that IS the recovery path).

import (
	"errors"
	"fmt"
)

// ErrSessionConflict reports a session-scoped call whose session name does
// not match the backend's active delivery session — none at all (the shard
// restarted and lost it), or another coordinator's. The marketing layer maps
// it to HTTP 409; the coordinator responds by aborting and re-running the
// day.
var ErrSessionConflict = errors.New("platform: delivery session conflict")

// ErrSessionActive reports a call refused because a coordinated delivery
// session is open on the backend: an in-process day, or a retraining that
// would move the serve log the session's rows flush into at Finish.
var ErrSessionActive = errors.New("platform: coordinated delivery session active")

// daySession is the in-memory state of one coordinated delivery day on one
// shard backend.
type daySession struct {
	name string
	del  *DeliveryState // which slice of which day Finish commits
	run  *dayRun        // the one shard this backend owns; its served buffer is flushed at Finish

	nextTick     int
	lastAuctions int64 // of the previous tick, for its idempotent replay
}

// BeginDaySession opens a coordinated delivery session named `session` for
// one shard of a `shards`-wide day. It resolves the ad set exactly like
// RunDayWorkers (rejected ads skipped, other non-active statuses fatal) and
// returns the day plan: tick count, pacing mode, and per-ad budgets and
// starting bids in run order. The user partition is by position in the
// globally sorted eligible-user list (position mod shards), the split every
// day uses — so an N-shard coordinated day reproduces
// RunDayWorkers(workers=N) bit for bit.
//
// Any existing session is replaced: sessions are volatile scratch, and
// replacement is how a coordinator recovers a backend that holds a stale
// day. A request refused before replacing leaves the session open. The
// replaced day's arena is parked after the new day has taken its own.
func (p *Platform) BeginDaySession(session string, adIDs []string, seed int64, shard, shards int) (*DayInit, error) {
	if session == "" {
		return nil, fmt.Errorf("platform: day session needs a name")
	}
	if err := checkShardCount(shards); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("platform: shard %d outside [0, %d)", shard, shards)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	plan, err := p.prepareDay(adIDs)
	if err != nil {
		return nil, err
	}
	p.endSession()
	p.session = &daySession{
		name: session,
		del:  &DeliveryState{Seed: seed, Workers: shards, Shard: shard, Shards: shards},
		run:  p.newDayRun(plan, seed, shard, shard+1, shards),
	}
	return p.dayInit(session, plan), nil
}

// DaySessionTick runs phase 2 of one tick under the coordinator's frozen
// snapshot. dirs must carry one directive per active ad in run order. Ticks
// must arrive in order; re-sending the previous tick replays its recorded
// report without re-running anything (so a retried RPC whose response was
// lost is harmless), and any other tick number is a conflict.
//
// The report's Spent vector is this shard's tick spend for a multi-shard
// day (the coordinator folds it with the budget clamp, in shard order);
// for a 1-shard day it is the backend's committed absolute spend — a live
// shard accumulates spend per auction with a per-auction clamp, and only its
// own addition order reproduces the historical digests, so there the backend
// is authoritative and the coordinator adopts its totals.
func (p *Platform) DaySessionTick(session string, tick int, dirs []TickDirective) (*TickReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, err := p.sessionLocked(session)
	if err != nil {
		return nil, err
	}
	run := sess.run
	if replay := sess.nextTick > 0 && tick == sess.nextTick-1; !replay {
		if tick != sess.nextTick {
			return nil, fmt.Errorf("platform: session %q expects tick %d, got %d: %w", session, sess.nextTick, tick, ErrSessionConflict)
		}
		if ticks := p.cfg.Ticks; tick >= ticks {
			return nil, fmt.Errorf("platform: tick %d beyond day length %d: %w", tick, ticks, ErrSessionConflict)
		}
		if len(dirs) != len(run.plan.bids) {
			return nil, fmt.Errorf("platform: session %q got %d directives, want %d: %w", session, len(dirs), len(run.plan.bids), ErrSessionConflict)
		}
		before := run.auctions()
		p.stepShards(run, tick, dirs)
		sess.lastAuctions = run.auctions() - before
		sess.nextTick++
	}
	// The run holds a tick's report until its next step, so a replay re-reads
	// what the tick itself reported.
	return &TickReport{Tick: tick, Spent: append([]float64(nil), run.reports[0]...), Auctions: sess.lastAuctions}, nil
}

// FinishDaySession commits a completed session: the session's stats become
// the ads' frozen insights with the coordinator's authoritative per-ad
// SpendCents (identical on every shard — the coordinator rounds its
// committed float totals exactly once and distributes the result), the ads
// complete, the durable day mutation is emitted, and the buffered served
// rows flush into the retraining buffer. The day must have run every tick.
func (p *Platform) FinishDaySession(session string, spendCents []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, err := p.sessionLocked(session)
	if err != nil {
		return err
	}
	if sess.nextTick != p.cfg.Ticks {
		return fmt.Errorf("platform: session %q finished at tick %d of %d: %w", session, sess.nextTick, p.cfg.Ticks, ErrSessionConflict)
	}
	if active := sess.run.plan.active; len(spendCents) != len(active) {
		return fmt.Errorf("platform: session %q got %d spend totals, want %d: %w", session, len(spendCents), len(active), ErrSessionConflict)
	}
	p.finishDay(sess.run, spendCents, sess.del)
	p.endSession()
	return nil
}

// AbortDaySession discards the named session. Aborting when no session is
// active is a no-op (the abort already took effect — likely a retry, or the
// shard restarted); aborting someone else's session is a conflict.
func (p *Platform) AbortDaySession(session string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session == nil {
		return nil
	}
	if p.session.name != session {
		return fmt.Errorf("platform: session %q active, cannot abort %q: %w", p.session.name, session, ErrSessionConflict)
	}
	p.endSession()
	return nil
}

// endSession closes the open session, if any, and parks its day's arena; the
// caller holds p.mu for writing.
func (p *Platform) endSession() {
	if p.session != nil {
		p.parkArena(p.session.run.plan.arena)
		p.session = nil
	}
}

// SessionActive reports whether a coordinated day session is currently open
// on this shard — a mid-recovery signal the rejoin handshake surfaces so a
// supervisor never readmits a shard that is still inside someone's day.
func (p *Platform) SessionActive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.session != nil
}

// sessionLocked resolves a session name to the active session; the caller
// holds p.mu.
func (p *Platform) sessionLocked(session string) (*daySession, error) {
	if p.session == nil {
		return nil, fmt.Errorf("platform: no delivery session active, want %q: %w", session, ErrSessionConflict)
	}
	if p.session.name != session {
		return nil, fmt.Errorf("platform: session %q active, want %q: %w", p.session.name, session, ErrSessionConflict)
	}
	return p.session, nil
}
