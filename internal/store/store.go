// Package store is the platform's durability subsystem: an event-sourced
// write-ahead log of account mutations plus periodic snapshots of full
// platform state, so a multi-day audit survives server restarts (the paper's
// measurement window spans weeks of delivery days; re-polling insights only
// makes sense against a platform whose state outlives a crash).
//
// Design in one paragraph: the platform emits every committed mutation
// through its hook (see platform/state.go); the store frames each one as a
// length+CRC32 JSON record and appends it to the active WAL segment through
// a group-commit pipeline — appends buffer under the lock, a background
// flusher flushes (and fsyncs, per the configured mode) the whole batch at
// the flush interval, and Barrier lets the HTTP server wait for durability
// before acking, so one fsync covers every concurrent request in the window.
// Every SnapshotEvery records the store writes a full-state snapshot and
// rotates the WAL, deleting segments the snapshot covers. Recovery loads the
// newest valid snapshot, then replays the WAL tail in sequence order,
// truncating at the first torn or corrupt record instead of failing: a crash
// mid-write costs at most the unacked tail, never the acked prefix.
package store

import (
	"bufio"
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
	// FsyncInterval syncs at most once per SyncEvery: an acked record
	// survives process crash always, machine crash up to SyncEvery behind.
	FsyncInterval FsyncMode = "interval"
	// FsyncNone never syncs explicitly: durability is whatever the OS page
	// cache provides. For benchmarks and tests.
	FsyncNone FsyncMode = "none"
)

// ParseFsyncMode converts a flag value.
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
	// returned an error. The flusher retries on the next threshold
	// crossing, but a silently failing snapshot means recovery time grows
	// unbounded — this counter is the alarm for that condition.
	MetricSnapshotFailures = "store.snapshot_failures"
	// GaugeGroupCommitBatch is the size of the most recent group commit:
	// together with the two counters above it tells whether the flush
	// interval is actually batching concurrent writers.
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
	// Fsync is the sync discipline; default FsyncAlways.
	Fsync FsyncMode
	// FlushInterval is the group-commit window: how long the flusher lets a
	// batch accumulate before flushing it. Default 1ms.
	FlushInterval time.Duration
	// SyncEvery bounds the fsync staleness in FsyncInterval mode.
	// Default 100ms.
	SyncEvery time.Duration
	// SnapshotEvery writes a snapshot (and compacts the WAL) after this many
	// appended records. 0 disables automatic snapshots; Close still writes a
	// final one.
	SnapshotEvery int
	// Metrics receives the store.* counters; nil uses a private registry.
	Metrics *obs.Registry
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = time.Millisecond
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// batch is one group commit in progress: appends join it, the flusher
// settles it, waiters block on done and read err afterwards.
type batch struct {
	done chan struct{}
	err  error
	n    int
}

// Store is the durable state store. Open it, Recover into a freshly built
// platform (this also arms the mutation hook and starts the flusher), hand
// it to the HTTP server as its persistence barrier, and Close on shutdown.
type Store struct {
	opts Options
	reg  *obs.Registry

	mu        sync.Mutex
	f         *os.File      // active WAL segment
	buf       *bufio.Writer // append buffer over f
	segStart  uint64        // first sequence the active segment may hold
	seq       uint64        // last assigned sequence number
	snapSeq   uint64        // sequence the latest snapshot covers
	sinceSnap int           // records appended since the latest snapshot
	cur       *batch        // open batch accumulating appends
	lastBatch *batch        // batch containing the most recent append
	sticky    error         // first unrecoverable append/flush error
	lastSync  time.Time
	closed    bool
	recovered bool

	p *platform.Platform

	kick     chan struct{}
	stop     chan struct{}
	flusherC chan struct{} // closed when the flusher exits
	stopOnce sync.Once
}

// Open prepares a store over a directory. No file is touched beyond creating
// the directory; call Recover to load state and begin accepting appends.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if _, err := ParseFsyncMode(string(opts.Fsync)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		opts:     opts,
		reg:      opts.Metrics,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		flusherC: make(chan struct{}),
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
// the group-commit flusher. It must be called exactly once, before traffic.
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
		if rerr := p.Restore(snap.State); rerr != nil {
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

	// Resume appending: reuse the newest surviving segment, or start a fresh
	// one when the directory has none.
	s.mu.Lock()
	s.seq = lastSeq
	s.snapSeq = info.SnapshotSeq
	// The newest surviving segment (post-truncation) is append-ready;
	// segments past a break were removed above.
	var f *os.File
	for i := len(listing.segments) - 1; i >= 0; i-- {
		path := filepath.Join(s.opts.Dir, walName(listing.segments[i]))
		//adlint:allow lockhold (recovery runs before the store is shared; the lock is uncontended)
		if _, statErr := os.Stat(path); statErr == nil {
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644) //adlint:allow lockhold (see above)
			s.segStart = listing.segments[i]
			break
		}
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if f == nil {
		s.segStart = lastSeq + 1
		f, err = os.OpenFile(filepath.Join(s.opts.Dir, walName(s.segStart)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644) //adlint:allow lockhold (see above)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.f = f
	s.buf = bufio.NewWriterSize(f, 1<<20)
	s.p = p
	s.recovered = true
	s.lastSync = time.Now()
	s.mu.Unlock()

	info.LastSeq = lastSeq
	info.Duration = time.Since(start)
	s.reg.Gauge(GaugeRecoveryMs).Set(info.Duration.Milliseconds())
	s.reg.Gauge(GaugeRecoveredEvents).Set(int64(info.Replayed))

	p.SetMutationHook(s.onMutation)
	go s.flusher()
	return info, nil
}

// onMutation is the platform hook: frame and buffer the record, join the
// open batch, and wake the flusher. It runs under the platform's write lock,
// so it must not block on I/O completion — durability waiting is Barrier's
// job.
func (s *Store) onMutation(m platform.Mutation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sticky != nil || s.closed {
		return
	}
	s.seq++
	payload, err := json.Marshal(walRecord{Version: walRecordVersion, Seq: s.seq, Mut: m})
	if err == nil {
		err = writeFrame(s.buf, payload)
	}
	if err != nil {
		s.sticky = fmt.Errorf("store: appending seq %d: %w", s.seq, err)
		s.failPendingLocked()
		return
	}
	if s.cur == nil {
		s.cur = &batch{done: make(chan struct{})}
	}
	s.cur.n++
	s.lastBatch = s.cur
	s.sinceSnap++
	s.reg.Counter(MetricRecordsAppended).Inc()
	s.reg.Counter(MetricBytesAppended).Add(int64(frameHeaderSize + len(payload)))
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Barrier blocks until every mutation appended so far is flushed (and, per
// the fsync mode, synced). The HTTP server calls it between applying a
// mutation and acking the response: persist-before-respond.
func (s *Store) Barrier(ctx context.Context) error {
	s.mu.Lock()
	if s.sticky != nil {
		err := s.sticky
		s.mu.Unlock()
		return err
	}
	b := s.lastBatch
	s.mu.Unlock()
	if b == nil {
		return nil
	}
	select {
	case <-b.done:
		return b.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flusher is the group-commit loop: each kick opens a commit window of
// FlushInterval, then the whole accumulated batch is flushed in one write
// and (per mode) one fsync.
func (s *Store) flusher() {
	defer close(s.flusherC)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		if s.opts.FlushInterval > 0 {
			timer.Reset(s.opts.FlushInterval)
			select {
			case <-timer.C:
			case <-s.stop:
				// A crash-style stop (Kill) must not flush; a graceful Close
				// runs its own final flush after the flusher exits.
				return
			}
		}
		s.flushBatch(false)
		s.maybeSnapshot()
	}
}

// flushBatch settles the open batch: flush the buffer, sync per policy, and
// release the waiters. force syncs regardless of mode (graceful shutdown).
//
//adlint:allow lockhold (group commit: the one flusher flushes and syncs under the latch, so appends queue behind the commit they join)
func (s *Store) flushBatch(force bool) {
	s.mu.Lock()
	b := s.cur
	s.cur = nil
	if b == nil {
		s.mu.Unlock()
		return
	}
	err := s.sticky
	if err == nil {
		err = s.buf.Flush()
	}
	if err == nil {
		sync := force
		switch s.opts.Fsync {
		case FsyncAlways:
			sync = true
		case FsyncInterval:
			sync = sync || time.Since(s.lastSync) >= s.opts.SyncEvery
		}
		if sync {
			err = s.f.Sync()
			s.lastSync = time.Now()
			s.reg.Counter(MetricFsyncs).Inc()
		}
	}
	if err != nil && s.sticky == nil {
		s.sticky = fmt.Errorf("store: group commit: %w", err)
	}
	s.reg.Counter(MetricGroupCommits).Inc()
	s.reg.Gauge(GaugeGroupCommitBatch).Set(int64(b.n))
	s.mu.Unlock()
	b.err = err
	close(b.done)
}

// failPendingLocked releases batch waiters with the sticky error; the caller
// holds s.mu.
func (s *Store) failPendingLocked() {
	if s.cur != nil {
		s.cur.err = s.sticky
		close(s.cur.done)
		s.cur = nil
	}
}

// maybeSnapshot writes a snapshot when enough records accumulated since the
// last one. It runs on the flusher goroutine: commits pause for the
// snapshot's duration, which bounds memory and keeps the locking trivial.
func (s *Store) maybeSnapshot() {
	s.mu.Lock()
	need := s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery && s.sticky == nil && !s.closed
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
	return s.compact(seq)
}

// compact rotates to a fresh WAL segment and deletes files the snapshot at
// snapSeq makes redundant: segments whose every record is <= snapSeq, and
// all but the two newest snapshots (the older survivor is the fallback when
// the newest turns out unreadable).
//
//adlint:allow lockhold (segment rotation: flush, sync and swap the handle under the latch, so no append lands in a closed segment)
func (s *Store) compact(snapSeq uint64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.buf.Flush()
	if err == nil && s.opts.Fsync != FsyncNone {
		err = s.f.Sync()
	}
	// Rotate only when the active segment holds records; an empty segment
	// (seq < segStart) is already the fresh one.
	if err == nil && s.seq >= s.segStart {
		nextStart := s.seq + 1
		var nf *os.File
		nf, err = os.OpenFile(filepath.Join(s.opts.Dir, walName(nextStart)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			_ = s.f.Close()
			s.f = nf
			s.buf = bufio.NewWriterSize(nf, 1<<20)
			s.segStart = nextStart
		}
	}
	if err != nil {
		if s.sticky == nil {
			s.sticky = fmt.Errorf("store: rotating WAL: %w", err)
			s.failPendingLocked()
		}
		s.mu.Unlock()
		return err
	}
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

// Close gracefully shuts the store down: stop the flusher, force-flush and
// sync the WAL tail, write a final snapshot, and close the segment. The
// returned RecoveryPoint is what a restart would recover from.
//
//adlint:allow lockhold (shutdown: the flusher has exited, the final flush runs under the latch by design)
func (s *Store) Close() (RecoveryPoint, error) {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.recovered
	s.mu.Unlock()
	if !started {
		// Opened but never recovered: no flusher, no file, nothing to do.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return RecoveryPoint{}, nil
	}
	<-s.flusherC
	s.flushBatch(true)

	var err error
	s.mu.Lock()
	sticky := s.sticky
	s.mu.Unlock()
	if sticky == nil {
		err = s.Snapshot()
	} else {
		err = sticky
	}

	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.failPendingLocked()
		if s.buf != nil {
			if ferr := s.buf.Flush(); err == nil {
				err = ferr
			}
		}
		if s.f != nil {
			if s.opts.Fsync != FsyncNone && sticky == nil {
				if serr := s.f.Sync(); err == nil {
					err = serr
				}
			}
			if cerr := s.f.Close(); err == nil {
				err = cerr
			}
		}
	}
	rp := RecoveryPoint{SnapshotSeq: s.snapSeq, TailRecords: s.seq - s.snapSeq}
	s.mu.Unlock()
	return rp, err
}

// Kill simulates a crash for soak tests: the flusher stops without flushing,
// buffered-but-unflushed records are dropped (exactly what a SIGKILL would
// lose), pending barrier waiters fail, and the file handle closes as-is. The
// on-disk state afterwards is whatever group commits had already flushed —
// which, because acks wait on Barrier, covers every acked request.
//
//adlint:allow lockhold (crash simulation: closing the handle under the latch is the point)
func (s *Store) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.recovered
	s.mu.Unlock()
	if started {
		<-s.flusherC
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.sticky == nil {
		s.sticky = ErrKilled
	}
	s.failPendingLocked()
	if s.f != nil {
		_ = s.f.Close() // deliberately no Flush: the buffer dies with the "process"
	}
}

// LastSeq reports the most recently assigned sequence number.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
