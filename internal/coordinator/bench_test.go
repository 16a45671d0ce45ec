package coordinator_test

// The replication tax at equal audience size: one audience upload through
// the API client into a single shard, and through a router over two, at the
// serve and fleet workloads' upload sizes. The ratio router2/server is what
// replication costs; ROADMAP item 2 asks for it like for like before anyone
// profiles it further. Both topologies are simulated fleets (chaos.Fleet), so
// what is timed is encode, relay, scan and match, without a socket on either
// side; bench/'s fleet_2shard workload is the measurement over TCP.
//
//	go test -run '^$' -bench ReplicatedAudience -benchtime 50x -benchmem ./internal/coordinator

import (
	"context"
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
)

func BenchmarkReplicatedAudience(b *testing.B) {
	cfg := node.WorldConfig{Seed: 710, Voters: 30000, LogRows: 2500, FLOnly: true}
	w, err := cfg.Build(cfg.PlatformConfig())
	if err != nil {
		b.Fatal(err)
	}
	hashes := node.PIIHashes(w.FL.Records[:20000])
	fleet := func(b *testing.B, shards int) *chaos.Fleet {
		f, err := chaos.NewFleet(chaos.FleetConfig{World: w, Platform: cfg.PlatformConfig(), Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = f.Close() })
		return f
	}
	topologies := []struct {
		name   string
		client func(b *testing.B) *marketing.Client
	}{
		{"server", func(b *testing.B) *marketing.Client { return shardClient(b, fleet(b, 1), 0) }},
		{"router2", func(b *testing.B) *marketing.Client { return fleet(b, 2).Client() }},
	}
	for _, n := range []int{2000, 20000} {
		for _, top := range topologies {
			b.Run(fmt.Sprintf("hashes=%d/%s", n, top.name), func(b *testing.B) {
				client := top.client(b)
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := client.CreateAudience(ctx, "bench", hashes[:n])
					if err != nil || resp.MatchedSize == 0 {
						b.Fatalf("upload of %d: %+v, %v", n, resp, err)
					}
				}
			})
		}
	}
}
