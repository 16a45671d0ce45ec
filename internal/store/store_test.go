package store

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// One small deterministic world shared by every test; platforms are rebuilt
// per test from it (they carry the mutable account).
var (
	worldOnce sync.Once
	worldPop  *population.Population
	worldBhv  *population.Behavior
	worldFL   *voter.Registry
)

func world(t testing.TB) {
	t.Helper()
	worldOnce.Do(func() {
		flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 701)
		flCfg.NumVoters = 5000
		fl, err := voter.Generate(flCfg)
		if err != nil {
			panic(err)
		}
		pop, err := population.Build(population.Config{Seed: 702}, fl)
		if err != nil {
			panic(err)
		}
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		worldPop, worldBhv, worldFL = pop, behave, fl
	})
}

func newPlatform(t testing.TB) *platform.Platform {
	t.Helper()
	world(t)
	cfg := platform.DefaultConfig(703)
	cfg.Training.LogRows = 2000
	cfg.ReviewRejectProb = 0
	p, err := platform.New(cfg, worldPop, worldBhv)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// piiHashes returns upload hashes for the first n registry records.
func piiHashes(t testing.TB, n int) []string {
	t.Helper()
	world(t)
	recs := worldFL.Records
	if n > len(recs) {
		n = len(recs)
	}
	hashes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r := &recs[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return hashes
}

// testOptions returns fast store options for tests: no fsync (tests
// simulate process crashes, not power loss), snapshots manual unless
// overridden.
func testOptions(dir string) Options {
	return Options{Dir: dir, Fsync: FsyncNone}
}

// openRecover opens a store over dir and recovers into a fresh platform.
func openRecover(t *testing.T, opts Options) (*Store, *platform.Platform, *RecoveryInfo) {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlatform(t)
	info, err := st.Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	return st, p, info
}

// drive pushes one of each durable mutation through the platform: an
// audience, a campaign, two ads, and a delivered day (5 WAL records).
func drive(t *testing.T, p *platform.Platform, tag string) {
	t.Helper()
	ca, err := p.CreateCustomAudience("aud-"+tag, piiHashes(t, 400))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := p.CreateCampaign("cmp-"+tag, platform.ObjectiveTraffic, platform.SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	targeting := platform.Targeting{CustomAudienceIDs: []string{ca.ID}}
	var ads []string
	for i := 0; i < 2; i++ {
		ad, err := p.CreateAd(cmp.ID, platform.Creative{Headline: "h"}, targeting, 200)
		if err != nil {
			t.Fatal(err)
		}
		ads = append(ads, ad.ID)
	}
	if err := p.RunDay(ads, 42); err != nil {
		t.Fatal(err)
	}
}

func barrier(t *testing.T, st *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.Barrier(ctx); err != nil {
		t.Fatalf("barrier: %v", err)
	}
}

// waitCounter waits, with a deadline, until the store counter name reaches
// at least min: the background goroutine's work is an event, not a sleep.
func waitCounter(t *testing.T, st *Store, name string, min int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.reg.Counter(name).Value() < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 10 s, want >= %d", name, st.reg.Counter(name).Value(), min)
		}
		time.Sleep(time.Millisecond)
	}
}

func stateJSON(t *testing.T, p *platform.Platform) string {
	t.Helper()
	b, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tailSegment returns the path of the newest WAL segment.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	l, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.segments) == 0 {
		t.Fatal("no WAL segments")
	}
	return filepath.Join(dir, walName(l.segments[len(l.segments)-1]))
}

func TestEmptyDirColdStart(t *testing.T) {
	st, _, info := openRecover(t, testOptions(t.TempDir()))
	if info.SnapshotPath != "" || info.Replayed != 0 || info.TruncatedAt != "" {
		t.Fatalf("cold start recovered something: %+v", info)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWithoutRecover(t *testing.T) {
	st, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripThroughSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	drive(t, p, "a")
	barrier(t, st)
	rp, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rp.SnapshotSeq == 0 || rp.TailRecords != 0 {
		t.Fatalf("graceful close: recovery point %+v, want final snapshot covering all records", rp)
	}
	want := stateJSON(t, p)

	st2, p2, info := openRecover(t, testOptions(dir))
	defer st2.Close()
	if info.SnapshotPath == "" {
		t.Fatalf("restart after graceful close: no snapshot used: %+v", info)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged across restart:\n got %.200s…\nwant %.200s…", got, want)
	}
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	drive(t, p, "a")
	barrier(t, st)
	want := stateJSON(t, p)
	st.Kill() // crash: no final snapshot

	st2, p2, info := openRecover(t, testOptions(dir))
	defer st2.Close()
	if info.SnapshotPath != "" || info.Replayed != 5 {
		t.Fatalf("WAL-only recovery: %+v, want 5 replayed events and no snapshot", info)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged across crash recovery")
	}
}

func TestBarrieredWritesSurviveKill(t *testing.T) {
	// Kill drops whatever no commit had written; a mutation the barrier
	// acked must never be in that set.
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	if _, err := p.CreateCustomAudience("acked", piiHashes(t, 50)); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)
	st.Kill()
	if err := st.Barrier(context.Background()); !errors.Is(err, ErrKilled) {
		t.Fatalf("barrier after kill: %v, want ErrKilled", err)
	}

	_, p2, _ := openRecover(t, testOptions(dir))
	if _, err := p2.Audience("ca-1"); err != nil {
		t.Fatalf("acked audience lost in crash: %v", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	drive(t, p, "a")
	barrier(t, st)
	want := stateJSON(t, p)
	st.Kill()

	// Simulate a crash mid-append: a frame header promising more payload
	// than the file holds.
	seg := tailSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, p2, info := openRecover(t, testOptions(dir))
	if info.TruncatedAt == "" || info.TruncatedBytes != 10 {
		t.Fatalf("torn tail not truncated: %+v", info)
	}
	if !strings.Contains(info.TruncatedAt, "torn") {
		t.Fatalf("truncation reason %q, want torn", info.TruncatedAt)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged after torn-tail truncation")
	}
	// The truncated store keeps working: new mutations append and survive
	// the next restart.
	if _, err := p2.CreateCampaign("after-truncation", platform.ObjectiveTraffic, platform.SpecialNone, 2019); err != nil {
		t.Fatal(err)
	}
	barrier(t, st2)
	if _, err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, p3, _ := openRecover(t, testOptions(dir))
	defer st3.Close()
	found := false
	for _, name := range p3.Inventory().CampaignNames {
		if name == "after-truncation" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-truncation mutation lost on restart")
	}
}

func TestBitFlipTruncatesFromCorruption(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	drive(t, p, "a")
	barrier(t, st)
	st.Kill()

	// Flip one byte inside the final record's payload (the delivered day).
	seg := tailSegment(t, dir)
	events, _, stop, err := readSegment(seg)
	if err != nil || stop != nil || len(events) != 5 {
		t.Fatalf("pre-corruption segment: %d events, stop=%v, err=%v", len(events), stop, err)
	}
	last := events[len(events)-1]
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, last.offset+frameHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, p2, info := openRecover(t, testOptions(dir))
	defer st2.Close()
	if info.Replayed != 4 || !strings.Contains(info.TruncatedAt, "corrupt") {
		t.Fatalf("bit flip: %+v, want 4 replayed and corrupt truncation", info)
	}
	// Everything before the corrupt record survives; the day it carried is
	// gone (it was never acked durable in this scenario).
	inv := p2.Inventory()
	if inv.Audiences != 1 || inv.Campaigns != 1 || inv.Ads != 2 {
		t.Fatalf("pre-corruption objects lost: %+v", inv)
	}
	ad, err := p2.Ad("ad-2")
	if err != nil {
		t.Fatal(err)
	}
	if ad.Status != platform.StatusActive {
		t.Fatalf("ad status %v after losing the delivery record, want ACTIVE", ad.Status)
	}
}

func TestStaleSnapshotPlusNewerWAL(t *testing.T) {
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	drive(t, p, "a")
	barrier(t, st)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot live only in the WAL tail.
	if _, err := p.CreateCampaign("tail-only", platform.ObjectiveTraffic, platform.SpecialNone, 2019); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)
	want := stateJSON(t, p)
	st.Kill()

	st2, p2, info := openRecover(t, testOptions(dir))
	defer st2.Close()
	if info.SnapshotPath == "" || info.Replayed == 0 {
		t.Fatalf("stale snapshot + newer WAL: %+v, want both used", info)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("tail mutation lost: snapshot shadowed the newer WAL")
	}
}

func TestSnapshotCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SnapshotEvery = 4
	st, p, _ := openRecover(t, opts)
	for i := 0; i < 3; i++ {
		if _, err := p.CreateCustomAudience("a", piiHashes(t, 20+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CreateCampaign("c", platform.ObjectiveTraffic, platform.SpecialNone, 2019); err != nil {
			t.Fatal(err)
		}
		barrier(t, st)
	}
	// The commit that crossed SnapshotEvery handed the background goroutine
	// a snapshot; Close writes the second.
	waitCounter(t, st, MetricSnapshots, 1)
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.snapshots) > 2 {
		t.Fatalf("%d snapshots retained, want at most 2", len(l.snapshots))
	}
	if len(l.segments) > 2 {
		t.Fatalf("%d WAL segments retained after compaction", len(l.segments))
	}
	want := stateJSON(t, p)
	st2, p2, _ := openRecover(t, opts)
	defer st2.Close()
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged after compaction")
	}
}

func TestRecoverRefusesForeignWorldSnapshot(t *testing.T) {
	dir := t.TempDir()
	p := newPlatform(t)
	if _, err := writeSnapshot(dir, &snapshotFile{
		Version:    snapshotVersion,
		Seq:        3,
		WorldUsers: p.NumUsers() + 1,
		State:      &platform.State{Version: platform.StateVersion},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(p); err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("foreign-world snapshot: err=%v, want world mismatch", err)
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, good := range []string{"always", "interval", "none", ""} {
		if _, err := ParseFsyncMode(good); err != nil {
			t.Errorf("ParseFsyncMode(%q): %v", good, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("ParseFsyncMode(sometimes): want error")
	}
}

func TestFsyncAlwaysCountsSyncs(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Fsync = FsyncAlways
	st, p, _ := openRecover(t, opts)
	if _, err := p.CreateCustomAudience("synced", piiHashes(t, 10)); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)
	if got := st.reg.Counter(MetricFsyncs).Value(); got == 0 {
		t.Fatal("fsync=always acked a write without syncing")
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
