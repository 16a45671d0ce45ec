package platform

// Differential determinism suite for the delivery engines.
//
// Two claims are pinned here:
//
//  1. workers=1 is the sequential oracle: its output is byte-identical to
//     the pre-parallelization engine's, asserted against golden digests
//     captured from the sequential implementation before the sharded
//     engine existed. These digests must never change; a diff here means
//     the oracle's RNG draw order or accounting moved.
//  2. Every parallel worker count is self-deterministic: repeated runs of
//     the same (ads, seed, workers) input produce identical AdStats —
//     impressions, clicks, spend, breakdown cells, RaceOracle, and
//     HourlySeries. Repeats use freshly created (identical-spec) ad sets,
//     so the assertion also catches any dependence on map layout or
//     allocation history.
//
// The first three scenarios deliberately use budgets far above the market's
// natural spend ceiling so the overspend clamp (which post-dates their
// capture) can never fire in them. The remaining ones were captured from the
// two-kernel engine immediately before it was collapsed into one kernel over
// a per-day plan, and cover what the first three leave out: no frequency cap,
// budgets that exhaust mid-day under the per-auction clamp, rows of degree
// 1, 2 and 3 in one day, a constant eAR term, and greedy pacing.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// deliveryDigest canonicalizes the ads' delivery reports — sorted
// serializable form with ad IDs normalized to creation order, so digests
// are comparable across ad sets created at different points in a
// platform's ID sequence — and hashes them.
func deliveryDigest(t *testing.T, p *Platform, adIDs []string) string {
	t.Helper()
	states := make([]AdStatsState, 0, len(adIDs))
	for i, id := range adIDs {
		st, err := p.Insights(id)
		if err != nil {
			t.Fatal(err)
		}
		ss := adStatsState(st)
		ss.AdID = fmt.Sprintf("ad#%d", i)
		states = append(states, *ss)
	}
	b, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type diffAdSpec struct {
	img    image.Features
	budget int
	// limit holds attribute limits layered over the shared custom audience
	// (CustomAudienceIDs is filled in by createAdSet), so one scenario can
	// give its ads partially overlapping audiences.
	limit Targeting
}

// createAdSet creates one campaign with one ad per spec and returns the ad
// IDs in creation order.
func createAdSet(t *testing.T, p *Platform, objective Objective, caID string, specs []diffAdSpec) []string {
	t.Helper()
	cmp, err := p.CreateCampaign("diff", objective, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(specs))
	for _, s := range specs {
		targeting := s.limit
		targeting.CustomAudienceIDs = []string{caID}
		ad, err := p.CreateAd(cmp.ID, Creative{Image: s.img, Headline: "h", LinkURL: "https://example.com"}, targeting, s.budget)
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status != StatusActive {
			t.Fatalf("ad %s not active: %v", ad.ID, ad.Status)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// diffCase is one (seed, population slice, ad mix) configuration plus the
// golden digest of the sequential engine's output for it.
type diffCase struct {
	name    string
	cfg     func() Config
	setup   func(t *testing.T, p *Platform, f *fixture) string // returns audience ID
	obj     Objective
	specs   []diffAdSpec
	runSeed int64
	golden  string
	// sharded holds per-worker-count golden digests captured from the
	// sharded engine before the columnar population refactor, pinning the
	// parallel paths byte-for-byte across representation changes.
	sharded map[int]string
}

func diffCases() []diffCase {
	imgWM := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgBM := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	imgBF := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	imgWF := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	return []diffCase{
		{
			name: "traffic_balanced",
			cfg:  func() Config { return testConfig(501) },
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 60, 51)
			},
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{img: imgWM, budget: 2_000_000}, {img: imgBM, budget: 2_000_000}},
			runSeed: 9001,
			golden:  "bfab4b68f56278ae3d81c3b18c0fc06f6dc41658a212e7d85d1bc21317af4557",
			sharded: map[int]string{
				2: "2645fac0a84d0db98b1cea2ee261bd8fb8ab3b08cd33ceb93f0f56f9f897d31f",
				4: "8788f405a671510acf6823d9c7157f0321d2596d149c50eba2ee049b4570cb59",
				8: "18e644fb449ca983042cbb3295fbd7f1b537924d350471ca65805e08720bf01a",
			},
		},
		{
			name: "conversions_split_24ticks",
			cfg: func() Config {
				cfg := testConfig(502)
				cfg.Ticks = 24
				cfg.FrequencyCap = 2
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return splitAudience(t, p, f, 800, false, 52)
			},
			obj:     ObjectiveConversions,
			specs:   []diffAdSpec{{img: imgWM, budget: 1_500_000}, {img: imgBM, budget: 1_500_000}, {img: imgBF, budget: 2_000_000}},
			runSeed: 9002,
			golden:  "b35bc4589ba175aa3beaa852e19138add87d1f677f58f649d6cea66ba1fcc9b1",
			sharded: map[int]string{
				2: "371de01a25f6e4fe10d18924b2e5853d39a868fc342bdbc393208fd3dfc84f9f",
				4: "b9c926bc437fb3cfc969ab7ab266980621c4f7bfb45dd41a4949c8d6f11358dc",
				8: "b5e91ae3b517d5176daccc0786ade1e3462a07f955abc7b1ef2a7e8a12168234",
			},
		},
		{
			name: "awareness_noiseless_ties",
			cfg: func() Config {
				cfg := testConfig(503)
				cfg.ValueNoise = 0
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 40, 53)
			},
			obj:     ObjectiveAwareness,
			specs:   []diffAdSpec{{img: imgWF, budget: 30_000_000}, {img: imgBF, budget: 30_000_000}, {img: imgWM, budget: 20_000_000}, {img: imgBM, budget: 20_000_000}},
			runSeed: 9003,
			golden:  "5d41bd178b88923945493808e66212c304839779775a029dfe7db5fb08097107",
			sharded: map[int]string{
				2: "4fb23637227ec9562e6b1541a96d3f4314c8b9544343ccb0174b96de063626dc",
				4: "0768544c3f58d3a191dcb04c36e39a7ac1fda211fcf362698d045292802c9a3e",
				8: "28b1c0226c7300ffd60ea2f72c02a06142f288aa16933aaca11aae65b3438f02",
			},
		},
		{
			name: "nocap_tight_budgets",
			cfg: func() Config {
				cfg := testConfig(504)
				cfg.FrequencyCap = 0
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 50, 54)
			},
			obj: ObjectiveTraffic,
			// All three exhaust: the tight pair mid-day, the third in the
			// closing ticks, each on a clamped budget-crossing charge; the
			// third averages >4 impressions per reached user, which the
			// default cap would have forbidden.
			specs:   []diffAdSpec{{img: imgWM, budget: 60}, {img: imgBF, budget: 90}, {img: imgBM, budget: 10_000}},
			runSeed: 9004,
			golden:  "886638190b5b78eea9b6a2e8bacfb35cbc864eb82e1d7cef893746af89973ab8",
			sharded: map[int]string{
				2: "f4d8a1a5ecb4315962c3627d26732a1d5cb8fabd45a8d9bd7257c4438c3074e0",
				4: "cbcb7b4059abb6490629a4451f0a729622748ae0d74fb03bc6eddd130c5ebece",
				8: "6b045e4db20a570cff0db417f4105917710338ed79f59969f1bf204b664608e2",
			},
		},
		{
			name: "overlapping_audiences",
			cfg:  func() Config { return testConfig(505) },
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 60, 55)
			},
			obj: ObjectiveTraffic,
			// Degree 3 for FL women, 2 for FL men and NC women, 1 for NC men.
			specs: []diffAdSpec{
				{img: imgWM, budget: 2_000_000},
				{img: imgBF, budget: 2_000_000, limit: Targeting{States: []demo.State{demo.StateFL}}},
				{img: imgWF, budget: 1_500_000, limit: Targeting{Genders: []demo.Gender{demo.GenderFemale}}},
			},
			runSeed: 9005,
			golden:  "a3b6d96c5c8254b0554724405b2e0ed0dc453fefd3d11724b4eadb3d9b2eb89d",
			sharded: map[int]string{
				2: "8223c46808734818d06f04f5ec2069a22704d46a3ea557938954e18f6d68b360",
				4: "00e55c239f6d6987eb346bc48fae12fc2654990941e700153dcdd024759b172c",
				8: "aa5203c4ccff742d15cc27f16307de1a9a6a533580e411fbda43457a7e106aab",
			},
		},
		{
			name: "no_ear",
			cfg: func() Config {
				cfg := testConfig(506)
				cfg.UseEAR = false
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 40, 56)
			},
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{img: imgWM, budget: 2_000_000}, {img: imgBF, budget: 2_000_000}},
			runSeed: 9006,
			golden:  "cb4748b7647ea395b1071015f8b55824c5840cec8a2742763bc76e282a15a40c",
			sharded: map[int]string{
				2: "62cd9651b0f22d70112c222d63fbb1c1d4da0fff4de59c41ad041a879b45a6d5",
				4: "25d9ad22e18ad8950a60555576e0397fab27a1deff286d85c615b3a8a8328c2b",
				8: "e7134db4bcad9ebd67dda1fd4a76c20668678eaf9cc0eac085f511e686b7630a",
			},
		},
		{
			name: "greedy_pacing_exhausts",
			cfg: func() Config {
				cfg := testConfig(507)
				cfg.GreedyPacing = true
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 40, 57)
			},
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{img: imgWF, budget: 120}, {img: imgBM, budget: 2_000_000}},
			runSeed: 9007,
			golden:  "4954bba88efff91bb5211efd66ae1de21213f2cba2fdfef507dcd25bae4e62de",
			sharded: map[int]string{
				2: "5ed3b9ab87303c864fbf3b6f124f33b847c72ad6e3909a5a48f06dac4e376fab",
				4: "9667255f3018c1dbebbc1580a97174e64cffdd388e03e31191cc1f07a26ecc90",
				8: "4947ce2985c184038832e0c33d0eb3d77837d1ba6b4754a854fd360ccce859e3",
			},
		},
	}
}

// TestDeliverySequentialMatchesGoldens pins the workers=1 engine to the
// digests captured from the pre-parallelization sequential implementation.
func TestDeliverySequentialMatchesGoldens(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			ids := createAdSet(t, p, tc.obj, caID, tc.specs)
			if err := p.RunDayWorkers(ids, tc.runSeed, 1); err != nil {
				t.Fatal(err)
			}
			if got := deliveryDigest(t, p, ids); got != tc.golden {
				t.Errorf("workers=1 output diverged from the pre-change sequential golden:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}

// TestDeliveryShardedMatchesGoldens pins the parallel engine at workers
// 2, 4, and 8 to digests captured before the columnar population refactor:
// proof that moving the user store from structs to columns (and the audience
// index from a sorted map to CSR) changed no RNG draw, auction outcome, or
// accounting step on any shard.
func TestDeliveryShardedMatchesGoldens(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			for _, workers := range []int{2, 4, 8} {
				ids := createAdSet(t, p, tc.obj, caID, tc.specs)
				if err := p.RunDayWorkers(ids, tc.runSeed, workers); err != nil {
					t.Fatal(err)
				}
				if got := deliveryDigest(t, p, ids); got != tc.sharded[workers] {
					t.Errorf("workers=%d output diverged from the pre-refactor golden:\n got %s\nwant %s", workers, got, tc.sharded[workers])
				}
			}
		})
	}
}

// TestDeliveryShardedSelfDeterministic asserts that for each parallel
// worker count, three repeated runs of the same delivery day are
// bit-identical. Each repeat uses a freshly created ad set with identical
// specs, so the digest comparison (over normalized IDs) also proves the
// output does not depend on object identity, ID numbering, or map layout.
func TestDeliveryShardedSelfDeterministic(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			for _, workers := range []int{2, 4, 8} {
				var digests []string
				for rep := 0; rep < 3; rep++ {
					ids := createAdSet(t, p, tc.obj, caID, tc.specs)
					if err := p.RunDayWorkers(ids, tc.runSeed, workers); err != nil {
						t.Fatal(err)
					}
					digests = append(digests, deliveryDigest(t, p, ids))
				}
				for rep := 1; rep < len(digests); rep++ {
					if digests[rep] != digests[0] {
						t.Errorf("workers=%d repeat %d diverged:\n got %s\nwant %s", workers, rep, digests[rep], digests[0])
					}
				}
			}
		})
	}
}
