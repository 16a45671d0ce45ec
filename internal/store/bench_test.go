package store

// Benchmarks of the durability layer, beside the code: one record appended
// and group-committed, by kind; one acknowledged write, alone and with
// concurrent writers; and a snapshot written and recovered from.
//
//	go test -run '^$' -bench 'WALAppend|Commit|SnapshotRecover' -benchtime 200x ./internal/store

import (
	"context"
	"os"
	"testing"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// benchAccount drives a platform through one 2 000-member audience, a
// campaign and `ads` ads on it, then one delivered day of the first two.
func benchAccount(b *testing.B, p *platform.Platform, ads int) {
	b.Helper()
	world(b)
	hashes := make([]string, 2000)
	for i := range hashes {
		hashes[i] = worldPop.View(i).PIIKey()
	}
	ca, err := p.CreateCustomAudience("bench", hashes)
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := p.CreateCampaign("bench", platform.ObjectiveTraffic, platform.SpecialNone, 2019)
	if err != nil {
		b.Fatal(err)
	}
	var ids []string
	for i := 0; i < ads; i++ {
		ad, err := p.CreateAd(cmp.ID, platform.Creative{Headline: "h"}, platform.Targeting{CustomAudienceIDs: []string{ca.ID}}, 200)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, ad.ID)
	}
	if err := p.RunDayWorkers(ids[:2], 42, 1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppend appends b.N records through the hook the platform calls
// and waits for the last one's group commit (FsyncInterval, so most commits
// flush without a sync), for the three record kinds that carry a payload of
// any size: a 2 000-member audience, an ad on it, and a two-ad delivered day.
func BenchmarkWALAppend(b *testing.B) {
	byKind := map[string]platform.Mutation{}
	src := newPlatform(b)
	src.SetMutationHook(func(m platform.Mutation) { byKind[m.Kind] = m })
	benchAccount(b, src, 2)
	for _, bc := range []struct{ name, kind string }{
		{"audience", platform.MutAudienceCreated},
		{"ad", platform.MutAdCreated},
		{"day", platform.MutDayDelivered},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncInterval})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Recover(newPlatform(b)); err != nil {
				b.Fatal(err)
			}
			m := byKind[bc.kind]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.onMutation(m)
			}
			if err := st.Barrier(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(st.reg.Counter(MetricBytesAppended).Value())/float64(b.N), "bytes/record")
		})
	}
}

// BenchmarkCommit is the store's share of one acknowledged write: an ad
// record through the platform's hook, then Barrier. serial is one writer, a
// commit per record (what serve's one client costs the store); parallel is
// 4×GOMAXPROCS writers and reports how many records each commit carried.
// Both run under interval (no sync on the commit path) and always (one
// fsync per commit).
func BenchmarkCommit(b *testing.B) {
	var ad platform.Mutation
	src := newPlatform(b)
	src.SetMutationHook(func(m platform.Mutation) {
		if m.Kind == platform.MutAdCreated {
			ad = m
		}
	})
	benchAccount(b, src, 2)
	ctx := context.Background()
	for _, mode := range []FsyncMode{FsyncInterval, FsyncAlways} {
		open := func(b *testing.B) *Store {
			st, err := Open(Options{Dir: b.TempDir(), Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _, _ = st.Close() })
			if _, err := st.Recover(newPlatform(b)); err != nil {
				b.Fatal(err)
			}
			return st
		}
		b.Run("serial/"+string(mode), func(b *testing.B) {
			st := open(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.onMutation(ad)
				if err := st.Barrier(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel/"+string(mode), func(b *testing.B) {
			st := open(b)
			commits := st.reg.Counter(MetricGroupCommits).Value()
			b.ReportAllocs()
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					st.onMutation(ad)
					if err := st.Barrier(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			records := st.reg.Counter(MetricRecordsAppended).Value()
			b.ReportMetric(float64(records)/float64(st.reg.Counter(MetricGroupCommits).Value()-commits), "records/commit")
		})
	}
}

// BenchmarkSnapshotRecover snapshots an account of 200 ads on one
// 2 000-member audience and recovers a fresh platform from the snapshot.
func BenchmarkSnapshotRecover(b *testing.B) {
	src := newPlatform(b)
	benchAccount(b, src, 200)
	dst := newPlatform(b) // reused: Restore replaces the account wholesale
	var snapBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		path, err := writeSnapshot(dir, &snapshotFile{Version: snapshotVersion, Seq: 1, WorldUsers: src.NumUsers(), State: src.State()})
		if err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		snapBytes = fi.Size()
		st, err := Open(testOptions(dir))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Recover(dst); err != nil {
			b.Fatal(err)
		}
		if got := dst.Inventory().TargetedUsers; got != 200*2000 {
			b.Fatalf("recovered ads target %d users, want %d", got, 200*2000)
		}
		st.Kill() // no shutdown snapshot inside the timer
	}
	b.ReportMetric(float64(snapBytes), "snapshot_bytes")
}
