package coordinator

// The replication tax at equal audience size: one audience upload through
// the API client into a single marketing.Server, and through a router over
// two shard servers, at the serve and fleet workloads' upload sizes. The
// ratio router2/server is what replication costs; ROADMAP item 2 asks for it
// like for like before anyone profiles it further.
//
//	go test -run '^$' -bench ReplicatedAudience -benchtime 50x -benchmem ./internal/coordinator

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func BenchmarkReplicatedAudience(b *testing.B) {
	flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 711)
	flCfg.NumVoters = 30000
	fl, err := voter.Generate(flCfg)
	if err != nil {
		b.Fatal(err)
	}
	pop, err := population.Build(population.Config{Seed: 712}, fl)
	if err != nil {
		b.Fatal(err)
	}
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		b.Fatal(err)
	}
	hashes := make([]string, 20000)
	for i := range hashes {
		r := &fl.Records[i]
		hashes[i] = population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
	}
	shard := func(b *testing.B) string {
		cfg := platform.DefaultConfig(713)
		cfg.Training.LogRows = 2500
		p, err := platform.New(cfg, pop, behave)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := marketing.NewServer(p)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		return ts.URL
	}
	topologies := []struct {
		name string
		url  func(b *testing.B) string
	}{
		{"server", shard},
		{"router2", func(b *testing.B) string {
			coord, err := New(Config{Backends: []string{shard(b), shard(b)}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			router, err := NewRouter(coord, nil)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(router.Handler())
			b.Cleanup(ts.Close)
			return ts.URL
		}},
	}
	for _, n := range []int{2000, 20000} {
		for _, top := range topologies {
			b.Run(fmt.Sprintf("hashes=%d/%s", n, top.name), func(b *testing.B) {
				client, err := marketing.NewClient(top.url(b))
				if err != nil {
					b.Fatal(err)
				}
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
