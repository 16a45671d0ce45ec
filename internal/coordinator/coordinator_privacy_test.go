package coordinator_test

// Differential proof for the merge-then-privatize rule: a router that
// privatizes the MERGED cross-shard insights report is byte-identical, at
// the wire level, to a single adplatform process privatizing its own report
// under the same policy — for 1, 2, and 4 shards, at k-anon and k-anon+dp.
// Per-shard privatization is the bug this architecture forbids, so a fleet
// whose shards privatize locally must be refused, not merged.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// privateShards makes every shard's OWN insights surface privatize: the
// single-process reference, and (misconfigured behind a router) the shards
// the coordinator must refuse.
func privateShards(cfg privacy.Config) func(*chaos.FleetConfig) {
	return func(fc *chaos.FleetConfig) { fc.Stack.Privacy = cfg }
}

// privateRouter is the correct fleet deployment: raw shards behind a
// coordinator that privatizes the merged report.
func privateRouter(cfg privacy.Config) func(*chaos.FleetConfig) {
	return func(fc *chaos.FleetConfig) { fc.Coordinator.Privacy = cfg }
}

// TestRouterPrivatizedMatchesSingleProcess is the tentpole differential
// claim: privatized merged insights from a 1/2/4-shard router are
// byte-identical to single-process privatized output on the same seed —
// suppression decisions, noise draws, and the wire privacy block all agree,
// because both sides privatize the SAME logical report under the same pure
// (seed, cell key) noise stream.
func TestRouterPrivatizedMatchesSingleProcess(t *testing.T) {
	const nAds = 3
	const seed = 9600
	policies := []privacy.Config{
		{Level: privacy.LevelKAnon, K: 20},
		{Level: privacy.LevelKAnonDP, K: 20, Epsilon: 1, Seed: 42},
	}
	for _, cfg := range policies {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", cfg.Level, shards), func(t *testing.T) {
				want := referenceDigest(t, nAds, seed, shards, privateShards(cfg))
				client := launch(t, shards, privateRouter(cfg)).Client()
				ids := setupAccount(t, client, nAds)
				if err := client.Deliver(context.Background(), ids, seed); err != nil {
					t.Fatal(err)
				}
				if got := insightsDigest(t, client, ids); got != want {
					t.Errorf("%d-shard privatized router diverged from single process (%s):\n got %s\nwant %s",
						shards, cfg.Level, got, want)
				}
			})
		}
	}
}

// TestRouterPrivacyOffIsRaw: with privacy off the router's responses carry
// no privacy block at all — the wire surface is the pre-privacy API.
func TestRouterPrivacyOffIsRaw(t *testing.T) {
	client := launch(t, 2, nil).Client()
	ids := setupAccount(t, client, 1)
	if err := client.Deliver(context.Background(), ids, 9700); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Insights(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Privacy != nil {
		t.Errorf("privacy off: response carries privacy block %+v", resp.Privacy)
	}
}

// TestRouterRefusesPrivatizedShards: shards that privatize locally violate
// merge-then-privatize (per-shard suppression over-suppresses partition
// slices); the coordinator must surface a divergence, not merge garbage.
func TestRouterRefusesPrivatizedShards(t *testing.T) {
	cfg := privacy.Config{Level: privacy.LevelKAnon, K: 5}
	client := launch(t, 2, both(privateRouter(cfg), privateShards(cfg))).Client()
	ids := setupAccount(t, client, 1)
	if err := client.Deliver(context.Background(), ids, 9800); err != nil {
		t.Fatal(err)
	}
	_, err := client.Insights(context.Background(), ids[0])
	if err == nil {
		t.Fatal("insights from a fleet of privatizing shards: want divergence error")
	}
	var apiErr *marketing.APIError
	if errors.As(err, &apiErr) {
		if !strings.Contains(apiErr.Message, "privatized by shard") {
			t.Errorf("error %q, want a privatized-by-shard divergence", apiErr.Message)
		}
	} else if !strings.Contains(err.Error(), "privatized by shard") {
		t.Errorf("error %v, want a privatized-by-shard divergence", err)
	}
}
