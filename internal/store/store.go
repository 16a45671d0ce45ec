// Package store is the platform's durability subsystem: an event-sourced
// write-ahead log of account mutations plus periodic snapshots of full
// platform state, so a multi-day audit survives server restarts (the paper's
// measurement window spans weeks of delivery days; re-polling insights only
// makes sense against a platform whose state outlives a crash).
//
// Design in one paragraph: the platform emits every committed mutation
// through its hook (see platform/state.go); the store frames each one as a
// length+CRC32 JSON record into a pending buffer and wakes nobody. The HTTP
// server calls Barrier before acking, and a Barrier whose record is still
// pending commits it itself: it takes the one-slot commit token, swaps the
// pending buffer out, writes it (and fsyncs, per the configured mode) with
// no lock the platform's mutations take, and releases every waiter of that
// batch. Records appended while a commit is in flight form the next batch,
// which the next waiter commits, so concurrent writers share one write and
// one fsync without a commit window. Every SnapshotEvery records a
// background goroutine writes a full-state snapshot and rotates the WAL,
// deleting segments the snapshot covers. Recovery loads the newest valid
// snapshot, then replays the WAL tail in sequence order, truncating at the
// first torn or corrupt record instead of failing: a crash mid-write costs
// at most the unacked tail, never the acked prefix.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// FsyncMode selects when appended records are forced to stable storage.
type FsyncMode string

// Fsync modes.
const (
	// FsyncAlways syncs once per group commit: an acked record survives
	// machine power loss. The default.
	FsyncAlways FsyncMode = "always"
	// FsyncInterval leaves commits unsynced and syncs the tail in the
	// background syncEvery after the commit that left it dirty: an acked
	// record survives process crash always, machine crash up to syncEvery
	// behind.
	FsyncInterval FsyncMode = "interval"
	// FsyncNone never syncs explicitly: durability is whatever the OS page
	// cache provides. For benchmarks and tests.
	FsyncNone FsyncMode = "none"
)

// ParseFsyncMode converts a flag value; "" is FsyncAlways.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncAlways, FsyncInterval, FsyncNone:
		return FsyncMode(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("store: unknown fsync mode %q (want always, interval, or none)", s)
}

// Store metric names, registered into the Options.Metrics registry.
const (
	MetricRecordsAppended = "store.records_appended"
	MetricBytesAppended   = "store.bytes_appended"
	MetricFsyncs          = "store.fsyncs"
	MetricGroupCommits    = "store.group_commits"
	MetricSnapshots       = "store.snapshots"
	// MetricSnapshotFailures counts background snapshot attempts that
	// returned an error. The next threshold crossing retries, but a
	// silently failing snapshot means recovery time grows unbounded — this
	// counter is the alarm for that condition.
	MetricSnapshotFailures = "store.snapshot_failures"
	// GaugeGroupCommitBatch is the size of the most recent group commit:
	// together with the two counters above it tells whether concurrent
	// writers are sharing commits.
	GaugeGroupCommitBatch = "store.group_commit_batch"
	// GaugeRecoveryMs is how long the last Recover took, in milliseconds.
	GaugeRecoveryMs = "store.recovery_duration_ms"
	// GaugeRecoveredEvents is how many WAL events the last Recover replayed.
	GaugeRecoveredEvents = "store.recovered_events"
	// MetricTruncatedBytes counts WAL bytes dropped by recovery truncation.
	MetricTruncatedBytes = "store.recovery_truncated_bytes"
)

// ErrKilled is the sticky error after Kill: the store simulated a crash and
// accepts nothing further.
var ErrKilled = errors.New("store: killed (simulated crash)")

// Options configures a store.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Fsync is the sync discipline, read by ParseFsyncMode: "" is
	// FsyncAlways.
	Fsync FsyncMode
	// SnapshotEvery writes a snapshot (and compacts the WAL) after this many
	// appended records. 0 disables automatic snapshots; Close still writes a
	// final one. Never negative.
	SnapshotEvery int
	// Metrics receives the store.* counters; nil gives the store a private
	// registry of its own.
	Metrics *obs.Registry
}

// syncEvery is how long FsyncInterval leaves a committed tail unsynced.
const syncEvery = 100 * time.Millisecond

// batch is one group commit: appends join it while it is pending, the
// leader that commits it closes done, waiters read err afterwards.
type batch struct {
	done chan struct{}
	err  error
	n    int
}

// Store is the durable state store. Open it, Recover into a freshly built
// platform (this also arms the mutation hook), hand it to the HTTP server as
// its persistence barrier, and Close on shutdown.
type Store struct {
	opts Options
	reg  *obs.Registry

	// token is the one-slot commit token: whoever holds it owns f and the
	// buffer being written. Barrier leaders, the background sync, compact,
	// Close and Kill take it.
	token chan struct{}

	mu        sync.Mutex
	f         *os.File // active WAL segment
	pending   []byte   // framed records of cur, not yet written
	spare     []byte   // the buffer the last commit wrote, reused by the next swap
	segStart  uint64   // first sequence the active segment may hold
	seq       uint64   // last assigned sequence number
	written   uint64   // last sequence handed to f
	snapSeq   uint64   // sequence the latest snapshot covers
	sinceSnap int      // records appended since the latest snapshot
	cur       *batch   // pending batch accumulating appends
	last      *batch   // batch containing the most recent append
	sticky    error    // first unrecoverable append/commit error
	dirty     bool     // FsyncInterval: written since the last sync
	closed    bool
	recovered bool

	p *platform.Platform

	wake     chan struct{} // a commit found a snapshot due or left the tail dirty
	stop     chan struct{}
	bgDone   chan struct{} // closed when the background goroutine exits
	stopOnce sync.Once
}

// Open prepares a store over a directory. No file is touched beyond creating
// the directory; call Recover to load state and begin accepting appends.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty Dir")
	}
	if opts.SnapshotEvery < 0 {
		return nil, fmt.Errorf("store: SnapshotEvery %d is negative (0: no automatic snapshots)", opts.SnapshotEvery)
	}
	var err error
	if opts.Fsync, err = ParseFsyncMode(string(opts.Fsync)); err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		opts:   opts,
		reg:    reg,
		token:  make(chan struct{}, 1),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		bgDone: make(chan struct{}),
	}, nil
}

// RecoveryInfo describes what Recover found and did.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence of the snapshot recovery started from
	// (0 when none was usable).
	SnapshotSeq uint64
	// SnapshotPath is the snapshot file used, "" when none.
	SnapshotPath string
	// Replayed is how many WAL events were applied on top of the snapshot.
	Replayed int
	// Skipped is how many WAL events were already covered by the snapshot.
	Skipped int
	// TruncatedBytes is how many trailing WAL bytes were cut as torn or
	// corrupt; TruncatedAt names where, "" when the log was clean.
	TruncatedBytes int64
	TruncatedAt    string
	// LastSeq is the store's sequence position after recovery.
	LastSeq uint64
	// Duration is recovery wall time.
	Duration time.Duration
}

// String renders the one-line boot log.
func (ri *RecoveryInfo) String() string {
	snap := "no snapshot"
	if ri.SnapshotPath != "" {
		snap = fmt.Sprintf("snapshot seq=%d (%s)", ri.SnapshotSeq, filepath.Base(ri.SnapshotPath))
	}
	trunc := ""
	if ri.TruncatedAt != "" {
		trunc = fmt.Sprintf(", truncated %d bytes at %s", ri.TruncatedBytes, ri.TruncatedAt)
	}
	return fmt.Sprintf("recovered from %s + %d WAL events (%d already covered)%s in %v; next seq %d",
		snap, ri.Replayed, ri.Skipped, trunc, ri.Duration.Round(time.Millisecond), ri.LastSeq+1)
}

// Recover restores the durable account into p (which must be freshly built
// from the same world seed the store's history was recorded against), arms
// p's mutation hook so subsequent mutations append to the WAL, and starts
// the background goroutine. It must be called exactly once, before traffic.
func (s *Store) Recover(p *platform.Platform) (*RecoveryInfo, error) {
	if p == nil {
		return nil, fmt.Errorf("store: nil platform")
	}
	s.mu.Lock()
	if s.recovered || s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: Recover called twice or after Close")
	}
	s.mu.Unlock()

	start := time.Now()
	info := &RecoveryInfo{}
	listing, err := scanDir(s.opts.Dir)
	if err != nil {
		return nil, err
	}

	// Newest usable snapshot wins; an unreadable one falls back to the next,
	// and with none the fresh platform is the starting state.
	for i := len(listing.snapshots) - 1; i >= 0; i-- {
		path := filepath.Join(s.opts.Dir, snapName(listing.snapshots[i]))
		snap, serr := readSnapshot(path)
		if serr != nil {
			continue
		}
		if snap.WorldUsers != p.NumUsers() {
			return nil, fmt.Errorf("store: snapshot %s was taken against a %d-user world, this platform has %d (world seed mismatch)",
				path, snap.WorldUsers, p.NumUsers())
		}
		if rerr := p.Restore(snap.State, false); rerr != nil {
			return nil, fmt.Errorf("store: restoring %s: %w", path, rerr)
		}
		info.SnapshotSeq = snap.Seq
		info.SnapshotPath = path
		break
	}

	// Replay the WAL tail in segment order. The first torn or corrupt record
	// ends the usable log: the segment is truncated there and any later
	// segments (unreachable past the break) are removed.
	lastSeq := info.SnapshotSeq
	var prevSeq uint64
	broken := false
	for _, segStart := range listing.segments {
		path := filepath.Join(s.opts.Dir, walName(segStart))
		if broken {
			_ = os.Remove(path)
			continue
		}
		events, goodEnd, stop, rerr := readSegment(path)
		if rerr != nil {
			return nil, rerr
		}
		for _, ev := range events {
			if prevSeq != 0 && ev.rec.Seq != prevSeq+1 {
				// A gap in the chain means a record vanished; nothing after
				// it is trusted.
				stop = fmt.Errorf("%w: sequence %d follows %d", errCorruptRecord, ev.rec.Seq, prevSeq)
				goodEnd = ev.offset
				break
			}
			prevSeq = ev.rec.Seq
			if ev.rec.Seq <= info.SnapshotSeq {
				info.Skipped++
				continue
			}
			if aerr := p.ApplyMutation(&ev.rec.Mut); aerr != nil {
				return nil, fmt.Errorf("store: replaying %s seq %d: %w", filepath.Base(path), ev.rec.Seq, aerr)
			}
			info.Replayed++
			if ev.rec.Seq > lastSeq {
				lastSeq = ev.rec.Seq
			}
		}
		if stop != nil {
			fi, _ := os.Stat(path)
			if fi != nil {
				info.TruncatedBytes += fi.Size() - goodEnd
			}
			info.TruncatedAt = fmt.Sprintf("%s offset %d (%v)", filepath.Base(path), goodEnd, stop)
			if terr := os.Truncate(path, goodEnd); terr != nil {
				return nil, fmt.Errorf("store: truncating %s: %w", path, terr)
			}
			broken = true
		}
	}
	if info.TruncatedBytes > 0 {
		s.reg.Counter(MetricTruncatedBytes).Add(info.TruncatedBytes)
	}

	// Resume appending: reuse the newest surviving segment (segments past a
	// break were removed above), or start a fresh one when there is none.
	segStart, flags := lastSeq+1, os.O_WRONLY|os.O_CREATE|os.O_EXCL
	for i := len(listing.segments) - 1; i >= 0; i-- {
		if _, err := os.Stat(filepath.Join(s.opts.Dir, walName(listing.segments[i]))); err == nil {
			segStart, flags = listing.segments[i], os.O_WRONLY|os.O_APPEND
			break
		}
	}
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, walName(segStart)), flags, 0o644)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.seq, s.written, s.snapSeq, s.segStart = lastSeq, lastSeq, info.SnapshotSeq, segStart
	s.f, s.p, s.recovered = f, p, true
	s.mu.Unlock()

	info.LastSeq = lastSeq
	info.Duration = time.Since(start)
	s.reg.Gauge(GaugeRecoveryMs).Set(info.Duration.Milliseconds())
	s.reg.Gauge(GaugeRecoveredEvents).Set(int64(info.Replayed))

	p.SetMutationHook(s.onMutation)
	go s.background()
	return info, nil
}

// onMutation is the platform hook: frame the record into the pending
// buffer and join the pending batch. It runs under the platform's write
// lock, so it wakes nobody and never waits on I/O — committing is the job of
// the Barrier that wants the record durable.
func (s *Store) onMutation(m platform.Mutation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sticky != nil || s.closed {
		return
	}
	s.seq++
	payload, err := json.Marshal(walRecord{Version: walRecordVersion, Seq: s.seq, Mut: m})
	if err != nil {
		s.failLocked(fmt.Errorf("store: appending seq %d: %w", s.seq, err))
		return
	}
	s.pending = appendFrame(s.pending, payload)
	if s.cur == nil {
		s.cur = &batch{done: make(chan struct{})}
	}
	s.cur.n++
	s.last = s.cur
	s.sinceSnap++
	s.reg.Counter(MetricRecordsAppended).Inc()
	s.reg.Counter(MetricBytesAppended).Add(int64(frameHeaderSize + len(payload)))
}

// Barrier blocks until every mutation appended so far is written (and, per
// the fsync mode, synced). The HTTP server calls it between applying a
// mutation and acking the response: persist-before-respond. When the batch
// holding the latest record is still pending, the caller becomes its leader
// and commits it; a leader finishes its commit even if ctx ends meanwhile.
func (s *Store) Barrier(ctx context.Context) error {
	s.mu.Lock()
	b, err := s.last, s.sticky
	s.mu.Unlock()
	if err != nil || b == nil {
		return err
	}
	select {
	case <-b.done:
	case <-ctx.Done():
		return ctx.Err()
	case s.token <- struct{}{}:
		// With the token held no batch is in flight, so b is either done or
		// still the pending one.
		select {
		case <-b.done:
		default:
			_ = s.commit(false) // b.err carries the outcome
		}
		<-s.token
	}
	return b.err
}

// commit writes the pending batch, syncs the segment when sync is set or
// the mode asks, and releases the batch's waiters. The caller holds the
// token; s.mu is held only to swap the buffer out and to publish the
// outcome, never across the write or the sync.
func (s *Store) commit(sync bool) error {
	sync = sync || s.opts.Fsync == FsyncAlways
	s.mu.Lock()
	if s.f == nil || s.sticky != nil { // closed or failed: nothing is pending
		err := s.sticky
		s.mu.Unlock()
		return err
	}
	b, buf, f := s.cur, s.pending, s.f
	if b != nil {
		s.cur, s.pending, s.spare, s.written = nil, s.spare, nil, s.seq
	}
	sync = sync && (b != nil || s.dirty)
	s.mu.Unlock()

	var err error
	if b != nil {
		_, err = f.Write(buf)
	}
	if err == nil && sync {
		err = f.Sync()
		s.reg.Counter(MetricFsyncs).Inc()
	}

	s.mu.Lock()
	wake := false
	switch {
	case err != nil:
		s.failLocked(fmt.Errorf("store: group commit: %w", err))
	case sync:
		s.dirty = false
	case b != nil && s.opts.Fsync == FsyncInterval && !s.dirty:
		s.dirty, wake = true, true
	}
	if b != nil {
		s.spare = buf[:0]
		wake = wake || s.snapshotDueLocked()
	}
	s.mu.Unlock()
	if wake {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	if b != nil {
		s.reg.Counter(MetricGroupCommits).Inc()
		s.reg.Gauge(GaugeGroupCommitBatch).Set(int64(b.n))
		b.err = err
		close(b.done)
	}
	return err
}

// background does the work no request should pay for: the snapshot a
// commit found due, and in FsyncInterval mode the sync of a tail a commit
// left dirty, syncEvery after that commit.
func (s *Store) background() {
	defer close(s.bgDone)
	var syncDue <-chan time.Time
	for {
		select {
		case <-s.stop:
			return
		case <-syncDue:
			syncDue = nil
			s.token <- struct{}{}
			_ = s.commit(true) // a failure is sticky
			<-s.token
		case <-s.wake:
			s.maybeSnapshot()
			s.mu.Lock()
			dirty := s.dirty
			s.mu.Unlock()
			if dirty && syncDue == nil {
				syncDue = time.After(syncEvery)
			}
		}
	}
}

// stopBackground stops the background goroutine and waits for it to exit,
// reporting whether the store was recovered (and so had one).
func (s *Store) stopBackground() bool {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.recovered
	s.mu.Unlock()
	if started {
		<-s.bgDone
	}
	return started
}

// failLocked latches err as the sticky error and releases the pending
// batch's waiters with it; the caller holds s.mu.
func (s *Store) failLocked(err error) {
	if s.sticky == nil {
		s.sticky = err
	}
	if s.cur != nil {
		s.cur.err = s.sticky
		close(s.cur.done)
		s.cur = nil
	}
}

// snapshotDueLocked reports whether SnapshotEvery has been crossed; the
// caller holds s.mu.
func (s *Store) snapshotDueLocked() bool {
	return s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery && s.sticky == nil && !s.closed
}

// maybeSnapshot writes a snapshot when enough records accumulated since the
// last one. Commits go on while the state is written; only the rotation
// takes the token.
func (s *Store) maybeSnapshot() {
	s.mu.Lock()
	need := s.snapshotDueLocked()
	s.mu.Unlock()
	if need {
		if err := s.Snapshot(); err != nil {
			// The WAL keeps growing and the next threshold crossing will
			// retry; surface the failure instead of discarding it so
			// operators see recovery debt accumulating.
			s.reg.Counter(MetricSnapshotFailures).Inc()
		}
	}
}

// Snapshot captures full platform state, writes it durably, and compacts the
// WAL: a fresh segment starts and segments entirely covered by the snapshot
// are deleted. Safe to call while serving; concurrent mutations land in the
// WAL tail the snapshot's Seq tells recovery to replay.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	if !s.recovered || s.closed || s.sticky != nil {
		err := s.sticky
		s.mu.Unlock()
		return err
	}
	// Capture the sequence BEFORE reading state: mutations landing between
	// the two are included in the state but also stay in the replayed tail,
	// which idempotent application makes harmless. The reverse order would
	// silently skip them.
	seq := s.seq
	s.mu.Unlock()

	state := s.p.State()
	_, err := writeSnapshot(s.opts.Dir, &snapshotFile{
		Version:    snapshotVersion,
		Seq:        seq,
		WorldUsers: s.p.NumUsers(),
		State:      state,
	})
	if err != nil {
		return err
	}
	s.reg.Counter(MetricSnapshots).Inc()
	s.token <- struct{}{}
	defer func() { <-s.token }()
	return s.compact(seq)
}

// compact commits and syncs the pending batch, rotates to a fresh WAL
// segment, and deletes files the snapshot at snapSeq makes redundant:
// segments whose every record is <= snapSeq, and all but the two newest
// snapshots (the older survivor is the fallback when the newest turns out
// unreadable). The caller holds the token, so no commit lands in the
// segment being closed.
func (s *Store) compact(snapSeq uint64) error {
	if err := s.commit(s.opts.Fsync != FsyncNone); err != nil {
		return err
	}
	s.mu.Lock()
	if s.f == nil { // closed meanwhile
		s.mu.Unlock()
		return nil
	}
	// Rotate only when the active segment holds records; an empty segment
	// (written < segStart) is already the fresh one.
	old, next := s.f, s.written+1
	rotate := s.written >= s.segStart
	s.mu.Unlock()
	if rotate {
		nf, err := os.OpenFile(filepath.Join(s.opts.Dir, walName(next)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			s.mu.Lock()
			s.failLocked(fmt.Errorf("store: rotating WAL: %w", err))
			s.mu.Unlock()
			return err
		}
		_ = old.Close()
		s.mu.Lock()
		s.f, s.segStart = nf, next
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.snapSeq = snapSeq
	s.sinceSnap = 0
	s.mu.Unlock()

	listing, err := scanDir(s.opts.Dir)
	if err != nil {
		return err
	}
	// A segment's records all precede the next segment's start; it is
	// redundant when that bound is <= snapSeq+1.
	for i := 0; i+1 < len(listing.segments); i++ {
		if listing.segments[i+1] <= snapSeq+1 {
			_ = os.Remove(filepath.Join(s.opts.Dir, walName(listing.segments[i])))
		}
	}
	for i := 0; i+2 < len(listing.snapshots); i++ {
		_ = os.Remove(filepath.Join(s.opts.Dir, snapName(listing.snapshots[i])))
	}
	return nil
}

// RecoveryPoint is where a restart would resume after a graceful Close.
type RecoveryPoint struct {
	SnapshotSeq uint64 // final snapshot position
	TailRecords uint64 // WAL records a restart would replay on top (0 after a clean Close)
}

// Close gracefully shuts the store down: stop the background goroutine,
// write a final snapshot (which commits and syncs the WAL tail), commit
// anything appended since, and close the segment. It waits for a commit in
// flight. The returned RecoveryPoint is what a restart would recover from.
func (s *Store) Close() (RecoveryPoint, error) {
	if !s.stopBackground() {
		// Opened but never recovered: no goroutine, no file, nothing to do.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return RecoveryPoint{}, nil
	}
	err := s.Snapshot()
	s.token <- struct{}{}
	defer func() { <-s.token }()
	s.mu.Lock()
	s.closed = true // no append joins the final commit's batch after this
	s.mu.Unlock()
	if cerr := s.commit(s.opts.Fsync != FsyncNone); err == nil {
		err = cerr
	}
	s.mu.Lock()
	f := s.f
	s.f = nil
	rp := RecoveryPoint{SnapshotSeq: s.snapSeq, TailRecords: s.seq - s.snapSeq}
	s.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return rp, err
}

// Kill simulates a crash for soak tests: the background goroutine stops,
// pending records are dropped unwritten (exactly what a SIGKILL would lose),
// their barrier waiters fail, and the file handle closes as-is. A commit in
// flight finishes first, so the on-disk state afterwards is whatever group
// commits wrote — which, because acks wait on Barrier, covers every acked
// request.
func (s *Store) Kill() {
	s.stopBackground()
	s.token <- struct{}{}
	defer func() { <-s.token }()
	s.mu.Lock()
	f := s.f
	s.f, s.closed = nil, true
	s.failLocked(ErrKilled)
	s.mu.Unlock()
	if f != nil {
		_ = f.Close() // no write, no sync: the pending records die with the "process"
	}
}
