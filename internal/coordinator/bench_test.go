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
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
)

func BenchmarkReplicatedAudience(b *testing.B) {
	cfg := node.WorldConfig{Seed: 710, Voters: 30000, LogRows: 2500}
	w, err := cfg.Build(cfg.PlatformConfig())
	if err != nil {
		b.Fatal(err)
	}
	hashes := node.PIIHashes(w.FL.Entries[:20000])
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

// BenchmarkMergeInsights times the router's merge of one ad's insights from
// two shards, before the privacy pass: each part a full breakdown (6 age
// buckets × 2 genders × 3 regions) and 48 pacing ticks.
//
//	go test -run '^$' -bench MergeInsights -benchmem ./internal/coordinator
func BenchmarkMergeInsights(b *testing.B) {
	parts := make([]*marketing.InsightsResponse, 2)
	for s := range parts {
		part := &marketing.InsightsResponse{AdID: "ad-1", SpendCents: 1250, Hourly: make([]int, 48)}
		for a, age := range []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"} {
			for g, gender := range []string{"male", "female"} {
				for r, region := range []string{"FL", "NC", "other"} {
					n := 10*s + 7*a + 3*g + r
					part.Breakdown = append(part.Breakdown, marketing.BreakdownRow{Age: age, Gender: gender, Region: region, Impressions: n})
					part.Impressions += n
					part.Hourly[n%48] += n
				}
			}
		}
		part.Reach, part.Clicks = part.Impressions*3/4, part.Impressions/50
		parts[s] = part
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coordinator.MergeInsights(parts); err != nil {
			b.Fatal(err)
		}
	}
}
