package store

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// The commit protocol: a Barrier whose batch is pending takes the one-slot
// commit token and writes the batch itself. These tests hold the token from
// the test, standing in for a commit in flight, and never sleep.

// holdToken takes the commit token; the returned release gives it back. It
// is also a cleanup, registered after the caller's Close cleanup so it runs
// first: a failing test does not leave Close waiting on the token.
func holdToken(t *testing.T, st *Store) func() {
	t.Helper()
	st.token <- struct{}{}
	var once sync.Once
	release := func() { once.Do(func() { <-st.token }) }
	t.Cleanup(release)
	return release
}

// openClosing is openRecover with Close registered as a cleanup.
func openClosing(t *testing.T, dir string) (*Store, *platform.Platform) {
	t.Helper()
	st, p, _ := openRecover(t, testOptions(dir))
	t.Cleanup(func() { _, _ = st.Close() })
	return st, p
}

func createCampaign(t *testing.T, p *platform.Platform, name string) {
	t.Helper()
	if _, err := p.CreateCampaign(name, platform.ObjectiveTraffic, platform.SpecialNone, 2019); err != nil {
		t.Fatal(err)
	}
}

func segmentSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(tailSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func hasCampaign(p *platform.Platform, name string) bool {
	for _, n := range p.Inventory().CampaignNames {
		if n == name {
			return true
		}
	}
	return false
}

// TestMutationReturnsDuringCommit: onMutation runs under the platform's write
// lock and never waits behind a commit; the mutation's Barrier does.
func TestMutationReturnsDuringCommit(t *testing.T) {
	dir := t.TempDir()
	st, p := openClosing(t, dir)
	release := holdToken(t, st)
	createCampaign(t, p, "during-commit")
	acked := make(chan error, 1)
	go func() { acked <- st.Barrier(context.Background()) }()
	select {
	case err := <-acked:
		t.Fatalf("Barrier returned %v while a commit held the token", err)
	default:
	}
	if n := segmentSize(t, dir); n != 0 {
		t.Fatalf("%d bytes written while a commit held the token", n)
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if segmentSize(t, dir) == 0 {
		t.Fatal("acked record not written")
	}
}

// TestReleasedTokenCommitsPendingOnce: records appended during a commit form
// one batch, which one leader writes for every waiter.
func TestReleasedTokenCommitsPendingOnce(t *testing.T) {
	st, p := openClosing(t, t.TempDir())
	release := holdToken(t, st)
	commits := st.reg.Counter(MetricGroupCommits).Value()
	const writers = 3
	for i := 0; i < writers; i++ {
		createCampaign(t, p, "c")
	}
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- st.Barrier(context.Background())
		}()
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := st.reg.Counter(MetricGroupCommits).Value() - commits; got != 1 {
		t.Fatalf("%d group commits for one pending batch, want 1", got)
	}
	if got := st.reg.Gauge(GaugeGroupCommitBatch).Value(); got != writers {
		t.Fatalf("group commit batch %d, want %d", got, writers)
	}
}

// TestCancelledWaiterRecordCommittedByNextLeader: a waiter that gives up
// leaves its record pending, and the next leader commits it.
func TestCancelledWaiterRecordCommittedByNextLeader(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	release := holdToken(t, st)
	createCampaign(t, p, "cancelled")
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() { waited <- st.Barrier(ctx) }()
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Barrier: %v, want context.Canceled", err)
	}
	release()
	createCampaign(t, p, "next")
	barrier(t, st)
	if got := st.reg.Gauge(GaugeGroupCommitBatch).Value(); got != 2 {
		t.Fatalf("next leader committed %d records, want the cancelled one too (2)", got)
	}
	st.Kill()
	_, p2, _ := openRecover(t, testOptions(dir))
	if !hasCampaign(p2, "cancelled") || !hasCampaign(p2, "next") {
		t.Fatalf("recovered campaigns %v, want cancelled and next", p2.Inventory().CampaignNames)
	}
}

// TestShutdownWaitsForCommitInFlight: Kill and Close take the token, so a
// commit in flight finishes before the segment closes and what it acked
// survives.
func TestShutdownWaitsForCommitInFlight(t *testing.T) {
	for name, stop := range map[string]func(*Store){
		"kill":  (*Store).Kill,
		"close": func(st *Store) { _, _ = st.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, p, _ := openRecover(t, testOptions(dir))
			release := holdToken(t, st)
			createCampaign(t, p, "acked")
			stopped := make(chan struct{})
			go func() { stop(st); close(stopped) }()
			<-st.bgDone // stop has begun; what remains needs the token
			select {
			case <-stopped:
				t.Fatal("returned with a commit in flight")
			default:
			}
			if err := st.commit(false); err != nil { // the commit in flight completes
				t.Fatal(err)
			}
			if err := st.Barrier(context.Background()); err != nil {
				t.Fatalf("ack: %v", err)
			}
			release()
			<-stopped
			st2, p2, _ := openRecover(t, testOptions(dir))
			defer st2.Close()
			if !hasCampaign(p2, "acked") {
				t.Fatal("acked record lost")
			}
		})
	}
}

// TestIntervalSyncsIdleTail: an interval-mode commit leaves the tail
// unsynced, and the background goroutine syncs it syncEvery later even when
// no further commit comes. At the parent the tail stayed unsynced for good.
func TestIntervalSyncsIdleTail(t *testing.T) {
	opts := testOptions(t.TempDir())
	opts.Fsync = FsyncInterval
	st, p, _ := openRecover(t, opts)
	defer st.Close()
	createCampaign(t, p, "idle")
	barrier(t, st)
	waitCounter(t, st, MetricFsyncs, 1)
}
