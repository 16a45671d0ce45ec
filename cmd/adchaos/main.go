// Command adchaos is the deterministic chaos soak for the multi-process
// serving tier. It runs the same seeded workload against two real 2-shard
// (configurable) fleets of adplatform child processes:
//
//   - Fleet A is DISTURBED: a chaos orchestrator walks a pure (seed, tick)
//     schedule of kill / SIGSTOP-pause / slow / partition against the shard
//     children while the in-process fleet supervisor detects, quarantines,
//     relaunches, and rejoins them (WAL recovery + journal catch-up +
//     cross-shard digest gate).
//   - Fleet B is UNDISTURBED: it replays exactly the operations fleet A
//     acknowledged, in order.
//
// The soak passes iff the two fleets end byte-identical on the full
// wire-level insights surface — every kill, pause, partition, resurrection,
// and journal replay in between may not change a single byte, and no
// acknowledged write may be lost. It writes a machine-readable benchmark
// (MTTR percentiles, journal replay latency, CRUD availability during
// degradation) to -out.
//
// Usage:
//
//	go build -o bin/adplatform ./cmd/adplatform
//	go run ./cmd/adchaos -shard-bin bin/adplatform -out BENCH_chaos_v1.json
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adchaos:", err)
		os.Exit(1)
	}
}

type options struct {
	shardBin    string
	shards      int
	world       node.WorldConfig
	chaosSeed   int64
	rate        float64
	actions     []chaos.Action
	ticks       int
	tickLen     time.Duration
	minGap      int
	dayEvery    int
	daySeedBase int64
	workDir     string
	out         string
	basePort    int
	bootTimeout time.Duration
	healTimeout time.Duration
}

func run(args []string) error {
	fs := flag.NewFlagSet("adchaos", flag.ContinueOnError)
	shardBin := fs.String("shard-bin", "", "path to the adplatform binary to spawn as shard children (required)")
	shards := fs.Int("shards", 2, "fleet width")
	worldOf := node.WorldFlags(fs, node.WorldConfig{Seed: 7, Voters: 4000, LogRows: 1500}) // every child builds this world
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos schedule seed (same seed, same disturbances)")
	rate := fs.Float64("rate", 0.6, "disturbance probability per eligible tick")
	actionsFlag := fs.String("actions", "all", "eligible disturbances (kill,pause,slow,partition) or all")
	ticks := fs.Int("ticks", 24, "chaos/workload ticks (one CRUD op per tick)")
	tickLen := fs.Duration("tick", 750*time.Millisecond, "tick cadence")
	minGap := fs.Int("min-gap", 4, "only every min-gap-th tick may disturb")
	dayEvery := fs.Int("day-every", 8, "run a delivery day every N ticks")
	daySeedBase := fs.Int64("day-seed", 9900, "delivery seed of day k is day-seed + k")
	workDir := fs.String("workdir", "", "working directory for WALs and child logs (default: a temp dir)")
	out := fs.String("out", "BENCH_chaos_v1.json", "benchmark output path")
	basePort := fs.Int("base-port", 8460, "first shard child port (fleet B uses base-port+100)")
	bootTimeout := fs.Duration("boot-timeout", 4*time.Minute, "budget for a fleet's children to build their world and answer /healthz")
	healTimeout := fs.Duration("heal-timeout", 90*time.Second, "budget for the disturbed fleet to heal after the chaos window closes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardBin == "" {
		return fmt.Errorf("-shard-bin is required (build ./cmd/adplatform first)")
	}
	actions, err := chaos.ParseActions(*actionsFlag)
	if err != nil {
		return err
	}
	opts := options{
		shardBin: *shardBin, shards: *shards, world: worldOf(),
		chaosSeed: *chaosSeed, rate: *rate, actions: actions, ticks: *ticks, tickLen: *tickLen,
		minGap: *minGap, dayEvery: *dayEvery, daySeedBase: *daySeedBase,
		workDir: *workDir, out: *out, basePort: *basePort,
		bootTimeout: *bootTimeout, healTimeout: *healTimeout,
	}
	if opts.workDir == "" {
		dir, err := os.MkdirTemp("", "adchaos-")
		if err != nil {
			return err
		}
		opts.workDir = dir
	}
	fmt.Printf("workdir: %s\n", opts.workDir)
	return soak(opts)
}

// op is one acknowledged operation of the disturbed fleet's workload — the
// replay unit for the undisturbed fleet.
type op struct {
	Kind  string   `json:"kind"` // "audience", "campaign", "ad", "day"
	Tick  int      `json:"tick"`
	Seed  int64    `json:"seed,omitempty"`   // day delivery seed
	ID    string   `json:"id,omitempty"`     // acked object ID (asserted on replay)
	AdIDs []string `json:"ad_ids,omitempty"` // ads a committed day delivered
}

type benchReport struct {
	Bench  string `json:"bench"`
	Date   string `json:"date"`
	Config struct {
		Shards    int     `json:"shards"`
		WorldSeed int64   `json:"world_seed"`
		ChaosSeed int64   `json:"chaos_seed"`
		Rate      float64 `json:"rate"`
		Ticks     int     `json:"ticks"`
		TickMs    int64   `json:"tick_ms"`
		MinGap    int     `json:"min_gap"`
	} `json:"config"`
	Events       []chaos.Event  `json:"events"`
	EventsByKind map[string]int `json:"events_by_kind"`
	CRUD         struct {
		Attempted           int     `json:"attempted"`
		Acked               int     `json:"acked"`
		AvailabilityPct     float64 `json:"availability_pct"`
		DegradedAttempted   int     `json:"degraded_attempted"`
		DegradedAcked       int     `json:"degraded_acked"`
		DegradedAvailPct    float64 `json:"degraded_availability_pct"`
		FullOutageAttempted int     `json:"full_outage_attempted"`
	} `json:"crud"`
	Days struct {
		Committed int `json:"committed"`
		Skipped   int `json:"skipped"`
		Retries   int `json:"retries"`
	} `json:"days"`
	MTTRMs struct {
		Count int64   `json:"count"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
		Max   float64 `json:"max"`
	} `json:"mttr_ms"`
	Journal struct {
		Appends     int64   `json:"appends"`
		Replayed    int64   `json:"replayed"`
		Skipped     int64   `json:"skipped"`
		Rejects     int64   `json:"rejects"`
		ReplayP50Ms float64 `json:"replay_p50_ms"`
		ReplayMaxMs float64 `json:"replay_max_ms"`
	} `json:"journal"`
	Relaunches int64 `json:"relaunches"`
	Rejoins    int64 `json:"rejoins"`
	Digest     struct {
		Disturbed   string `json:"disturbed"`
		Undisturbed string `json:"undisturbed"`
		Identical   bool   `json:"identical"`
	} `json:"digest"`
}

func soak(opts options) error {
	// The audience hash pool: the FL registry every child generates, hashed
	// client-side.
	fl, err := opts.world.Registry(demo.StateFL)
	if err != nil {
		return err
	}
	hashes := node.PIIHashes(fl.Records[:min(600, len(fl.Records))])

	report := &benchReport{Bench: "chaos_v1", Date: time.Now().UTC().Format(time.RFC3339)}
	report.Config.Shards = opts.shards
	report.Config.WorldSeed = opts.world.Seed
	report.Config.ChaosSeed = opts.chaosSeed
	report.Config.Rate = opts.rate
	report.Config.Ticks = opts.ticks
	report.Config.TickMs = opts.tickLen.Milliseconds()
	report.Config.MinGap = opts.minGap

	fmt.Printf("=== fleet A (disturbed): %d shards, chaos seed %d, rate %.2f over %d ticks ===\n",
		opts.shards, opts.chaosSeed, opts.rate, opts.ticks)
	oplog, digestA, err := runDisturbed(opts, hashes, report)
	if err != nil {
		return fmt.Errorf("disturbed fleet: %w", err)
	}

	fmt.Printf("=== fleet B (undisturbed): replaying %d acked ops ===\n", len(oplog))
	digestB, err := runUndisturbed(opts, hashes, oplog)
	if err != nil {
		return fmt.Errorf("undisturbed fleet: %w", err)
	}

	report.Digest.Disturbed = digestA
	report.Digest.Undisturbed = digestB
	report.Digest.Identical = digestA == digestB
	if err := writeReport(opts.out, report); err != nil {
		return err
	}
	fmt.Printf("benchmark written to %s\n", opts.out)
	if !report.Digest.Identical {
		return fmt.Errorf("DIVERGENCE: disturbed fleet digest %s != undisturbed %s", digestA, digestB)
	}
	fmt.Printf("chaos soak OK: digest %s identical across %d disturbances (MTTR p50 %.0fms, p99 %.0fms)\n",
		digestA, len(report.Events), report.MTTRMs.P50, report.MTTRMs.P99)
	return nil
}

// fleet is one running fleet: real shard children behind an in-process
// coordinator + router serving real HTTP.
type fleet struct {
	rel     *supervisor.ProcessRelauncher
	gate    *faults.Gate
	hosts   []string
	coord   *coordinator.Coordinator
	client  *marketing.Client
	reg     *obs.Registry
	httpSrv *http.Server
	ln      net.Listener
}

func startFleet(opts options, tag string, firstPort int, durable bool) (*fleet, error) {
	dir := filepath.Join(opts.workDir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	hosts := make([]string, opts.shards)
	backends := make([]string, opts.shards)
	argv := make([][]string, opts.shards)
	logs := make([]string, opts.shards)
	for i := 0; i < opts.shards; i++ {
		hosts[i] = "127.0.0.1:" + strconv.Itoa(firstPort+i)
		backends[i] = "http://" + hosts[i]
		// -review-reject 0: the review RNG must not be consulted, or a
		// journal-replayed create could draw a different verdict than the
		// original (the cursor advanced differently on the recovered shard).
		argv[i] = []string{
			opts.shardBin, "-addr", hosts[i],
			"-seed", strconv.FormatInt(opts.world.Seed, 10),
			"-voters", strconv.Itoa(opts.world.Voters),
			"-logrows", strconv.Itoa(opts.world.LogRows),
			"-review-reject", "0",
			"-delivery-workers", "1",
		}
		if durable {
			argv[i] = append(argv[i],
				"-store-dir", filepath.Join(dir, "state"+strconv.Itoa(i)),
				"-fsync", "always", "-snapshot-every", "50")
		}
		logs[i] = filepath.Join(dir, "shard"+strconv.Itoa(i)+".log")
	}
	rel, err := supervisor.NewProcessRelauncher(argv, logs)
	if err != nil {
		return nil, err
	}
	for i := range argv {
		if err := rel.Start(i); err != nil {
			rel.StopAll()
			return nil, err
		}
	}
	if err := node.WaitHealthy(backends, opts.bootTimeout); err != nil {
		rel.StopAll()
		return nil, err
	}

	gate := faults.NewGate()
	reg := obs.NewRegistry()
	coord, err := coordinator.New(coordinator.Config{
		Backends:    backends,
		DayAttempts: 8,
		DayBackoff:  300 * time.Millisecond,
		JournalCap:  512,
		Transport:   faults.NewTransport(nil, nil, gate),
	}, reg)
	if err != nil {
		rel.StopAll()
		return nil, err
	}
	coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond})
	router, err := coordinator.NewRouter(coord, reg)
	if err != nil {
		rel.StopAll()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rel.StopAll()
		return nil, err
	}
	httpSrv := &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	client, err := marketing.NewClient("http://" + ln.Addr().String())
	if err != nil {
		rel.StopAll()
		return nil, err
	}
	// Generous client retries: a single-shard outage surfaces as transient
	// 503s until the quarantine lands; the workload must ride through them.
	client.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: 600 * time.Millisecond})
	fmt.Printf("[%s] fleet up: router http://%s, shards %v\n", tag, ln.Addr(), hosts)
	return &fleet{rel: rel, gate: gate, hosts: hosts, coord: coord, client: client, reg: reg, httpSrv: httpSrv, ln: ln}, nil
}

func (f *fleet) stop() {
	_ = f.httpSrv.Close()
	f.rel.StopAll()
}

// procTarget adapts real process signals + the client-side gate to the chaos
// Target seam. Signal errors on an already-dead child are swallowed: the
// schedule is blind to relaunch timing by design, so "kill a corpse" and
// "pause a corpse" are no-ops, not failures.
type procTarget struct {
	rel   *supervisor.ProcessRelauncher
	gate  *faults.Gate
	hosts []string
	slow  time.Duration
}

func (t *procTarget) Kill(shard int) error {
	if err := t.rel.Signal(shard, supervisor.SigKill); err != nil {
		fmt.Printf("  (kill shard %d: %v)\n", shard, err)
	}
	return nil
}

func (t *procTarget) Pause(shard int) error {
	if err := t.rel.Signal(shard, supervisor.SigStop); err != nil {
		fmt.Printf("  (pause shard %d: %v)\n", shard, err)
	}
	return nil
}

func (t *procTarget) Resume(shard int) error {
	if err := t.rel.Signal(shard, supervisor.SigCont); err != nil {
		fmt.Printf("  (resume shard %d: %v)\n", shard, err)
	}
	return nil
}

func (t *procTarget) SetSlow(shard int, on bool) {
	d := time.Duration(0)
	if on {
		d = t.slow
	}
	t.gate.SetSlow(t.hosts[shard], d)
}

func (t *procTarget) SetPartition(shard int, on bool) {
	t.gate.SetPartition(t.hosts[shard], on)
}

func runDisturbed(opts options, hashes []string, report *benchReport) ([]op, string, error) {
	fl, err := startFleet(opts, "disturbed", opts.basePort, true)
	if err != nil {
		return nil, "", err
	}
	defer fl.stop()

	sup := supervisor.New(fl.coord, fl.rel, supervisor.Config{
		ProbeInterval:   250 * time.Millisecond,
		ProbeTimeout:    750 * time.Millisecond,
		RelaunchAfter:   2 * time.Second,
		RelaunchBackoff: 2 * time.Second,
		Logf: func(format string, args ...any) {
			fmt.Printf("[sup] "+format+"\n", args...)
		},
	}, fl.reg)
	sup.Start(context.Background())
	defer sup.Stop()

	sched, err := chaos.NewSchedule(chaos.Config{
		Seed: opts.chaosSeed, Shards: opts.shards, Rate: opts.rate,
		Actions: opts.actions, MinGap: opts.minGap,
	})
	if err != nil {
		return nil, "", err
	}
	orch := chaos.NewOrchestrator(sched, &procTarget{rel: fl.rel, gate: fl.gate, hosts: fl.hosts, slow: 150 * time.Millisecond}, nil)

	ctx := context.Background()
	w := &workload{client: fl.client, hashes: hashes, daySeedBase: opts.daySeedBase}
	if err := w.setup(ctx); err != nil {
		return nil, "", fmt.Errorf("workload setup: %w", err)
	}

	for tick := 0; tick < opts.ticks; tick++ {
		if ev, err := orch.Step(tick); err != nil {
			return nil, "", err
		} else if ev != nil {
			fmt.Printf("[chaos] tick %d: %s shard %d (window %d)\n", ev.Tick, ev.Action, ev.Shard, ev.Ticks)
		}
		degraded, full := fleetDegradation(fl.coord)
		report.CRUD.Attempted++
		if degraded {
			report.CRUD.DegradedAttempted++
		}
		if full {
			report.CRUD.FullOutageAttempted++
		}
		if o, err := w.tickOp(ctx, tick); err != nil {
			fmt.Printf("[crud] tick %d: %v\n", tick, err)
		} else {
			report.CRUD.Acked++
			if degraded {
				report.CRUD.DegradedAcked++
			}
			w.oplog = append(w.oplog, o)
		}
		if (tick+1)%opts.dayEvery == 0 {
			if err := w.day(ctx, tick); err != nil {
				fmt.Printf("[day] tick %d: skipped: %v\n", tick, err)
				report.Days.Skipped++
			} else {
				report.Days.Committed++
			}
		}
		time.Sleep(opts.tickLen)
	}
	if err := orch.Quiesce(); err != nil {
		return nil, "", err
	}
	report.Events = orch.Events()
	report.EventsByKind = map[string]int{}
	for _, e := range report.Events {
		report.EventsByKind[string(e.Action)]++
	}

	// Heal: every shard must come back healthy before the verification day.
	fmt.Printf("[heal] chaos window closed after %d events; waiting for the fleet to heal...\n", len(report.Events))
	healDeadline := time.Now().Add(opts.healTimeout)
	for {
		if allHealthy(fl.coord) {
			break
		}
		if time.Now().After(healDeadline) {
			dumpDivergence(opts.workDir, fl.hosts)
			return nil, "", fmt.Errorf("fleet did not heal within %s (states %v)", opts.healTimeout, fl.coord.Health().States())
		}
		time.Sleep(250 * time.Millisecond)
	}
	fmt.Printf("[heal] fleet healthy\n")

	// Verification day on the healed fleet — this one must commit. Delivery
	// is one-shot per ad, so make sure the day has an auction to run: if
	// every acked ad was already consumed by a mid-chaos day, create one
	// more (oplogged, so the undisturbed fleet mirrors it).
	if len(w.undelivered) == 0 {
		vt := opts.ticks
		if vt%10 == 9 {
			vt++ // that slot would create a campaign, not an ad
		}
		o, err := w.tickOp(ctx, vt)
		if err != nil {
			return nil, "", fmt.Errorf("verification ad on healed fleet: %w", err)
		}
		w.oplog = append(w.oplog, o)
	}
	if err := w.day(ctx, opts.ticks); err != nil {
		return nil, "", fmt.Errorf("verification day on healed fleet: %w", err)
	}
	report.Days.Committed++

	inv, err := fl.coord.Inventory(ctx)
	if err != nil {
		return nil, "", fmt.Errorf("healed-fleet inventory: %w", err)
	}
	if got, want := inv.Ads, w.created["ad"]; got != want {
		return nil, "", fmt.Errorf("acked write lost: healed fleet holds %d ads, %d were acked", got, want)
	}

	digest, err := insightsDigest(ctx, fl.client, w.adIDs)
	if err != nil {
		return nil, "", err
	}

	snap := fl.reg.Snapshot()
	mttr := snap.Histograms[supervisor.MetricMTTR]
	report.MTTRMs.Count = mttr.Count
	report.MTTRMs.P50 = mttr.P50Ms
	report.MTTRMs.P99 = mttr.P99Ms
	report.MTTRMs.Max = mttr.MaxMs
	replay := snap.Histograms[coordinator.MetricJournalReplayLatency]
	report.Journal.Appends = snap.Counters[coordinator.MetricJournalAppends]
	report.Journal.Replayed = snap.Counters[coordinator.MetricJournalReplayed]
	report.Journal.Skipped = snap.Counters[coordinator.MetricJournalSkipped]
	report.Journal.Rejects = snap.Counters[coordinator.MetricJournalRejects]
	report.Journal.ReplayP50Ms = replay.P50Ms
	report.Journal.ReplayMaxMs = replay.MaxMs
	report.Relaunches = snap.Counters[supervisor.MetricRelaunches]
	report.Rejoins = snap.Counters[coordinator.MetricRejoins]
	report.Days.Retries = int(snap.Counters[coordinator.MetricDayRetries])
	if report.CRUD.Attempted > 0 {
		report.CRUD.AvailabilityPct = 100 * float64(report.CRUD.Acked) / float64(report.CRUD.Attempted)
	}
	if report.CRUD.DegradedAttempted > 0 {
		report.CRUD.DegradedAvailPct = 100 * float64(report.CRUD.DegradedAcked) / float64(report.CRUD.DegradedAttempted)
	}
	return w.oplog, digest, nil
}

func runUndisturbed(opts options, hashes []string, oplog []op) (string, error) {
	fl, err := startFleet(opts, "undisturbed", opts.basePort+100, false)
	if err != nil {
		return "", err
	}
	defer fl.stop()

	ctx := context.Background()
	w := &workload{client: fl.client, hashes: hashes, daySeedBase: opts.daySeedBase}
	if err := w.setup(ctx); err != nil {
		return "", fmt.Errorf("workload setup: %w", err)
	}
	for i, o := range oplog {
		switch o.Kind {
		case "day":
			if err := w.replayDay(ctx, o); err != nil {
				return "", fmt.Errorf("replay op %d (day seed %d): %w", i, o.Seed, err)
			}
		default:
			got, err := w.tickOp(ctx, o.Tick)
			if err != nil {
				return "", fmt.Errorf("replay op %d (tick %d): %w", i, o.Tick, err)
			}
			if got.ID != o.ID {
				return "", fmt.Errorf("replay op %d: ID %s, disturbed fleet acked %s — allocation histories diverged", i, got.ID, o.ID)
			}
		}
	}
	// The disturbed fleet's post-heal verification day is in the oplog too,
	// so by here the replay has run every committed day. Digest the full
	// insights surface.
	return insightsDigest(ctx, fl.client, w.adIDs)
}

// workload issues the deterministic op sequence: everything is a pure
// function of the tick, so the undisturbed fleet can replay exactly the
// subset the disturbed fleet acknowledged.
type workload struct {
	client      *marketing.Client
	hashes      []string
	daySeedBase int64

	audienceID string
	campaignID string
	adIDs      []string
	// undelivered holds ads not yet consumed by a committed day: delivery
	// is one-shot (a delivered ad is COMPLETED, its insights frozen), so
	// each day runs over exactly the ads created since the last commit.
	undelivered []string
	days        int
	created     map[string]int
	oplog       []op
}

func (w *workload) setup(ctx context.Context) error {
	w.created = map[string]int{}
	ca, err := w.client.CreateAudience(ctx, "soak-aud", w.hashes)
	if err != nil {
		return err
	}
	if ca.MatchedSize == 0 {
		return fmt.Errorf("audience matched no users")
	}
	cmp, err := w.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "soak-cmp", Objective: "TRAFFIC"})
	if err != nil {
		return err
	}
	w.audienceID, w.campaignID = ca.ID, cmp.ID
	// Two seed ads so the very first delivery day has an auction to run.
	// Setup ops are NOT oplogged: both fleets run setup structurally, so
	// logging them here would replay them twice on the undisturbed side.
	for i := 0; i < 2; i++ {
		if _, err := w.tickOp(ctx, -2+i); err != nil {
			return err
		}
	}
	return nil
}

// tickOp performs the CRUD op for a tick. Every 10th tick creates a campaign;
// the rest create an ad with a deterministic per-tick spec.
func (w *workload) tickOp(ctx context.Context, tick int) (op, error) {
	if tick >= 0 && tick%10 == 9 {
		cmp, err := w.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{
			Name:      fmt.Sprintf("soak-cmp-%03d", tick),
			Objective: "TRAFFIC",
		})
		if err != nil {
			return op{}, err
		}
		w.created["campaign"]++
		return op{Kind: "campaign", Tick: tick, ID: cmp.ID}, nil
	}
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	n := tick + 2 // setup ads are ticks -2 and -1
	img := image.FromProfile(demo.Profile{
		Gender: genders[n%2],
		Race:   races[(n/2)%2],
		Age:    demo.ImpliedAdult,
	})
	ad, err := w.client.CreateAd(ctx, marketing.CreateAdRequest{
		CampaignID: w.campaignID,
		Creative: marketing.WireCreative{
			Image:    marketing.WireImageFrom(img),
			Headline: fmt.Sprintf("soak-ad-%03d", n),
			LinkURL:  "https://example.test/offer",
		},
		Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{w.audienceID}},
		DailyBudgetCents: 150 + 25*(n%6),
	})
	if err != nil {
		return op{}, err
	}
	if ad.Status != "ACTIVE" {
		return op{}, fmt.Errorf("ad %s status %q, want ACTIVE", ad.ID, ad.Status)
	}
	w.created["ad"]++
	w.adIDs = append(w.adIDs, ad.ID)
	w.undelivered = append(w.undelivered, ad.ID)
	return op{Kind: "ad", Tick: tick, ID: ad.ID}, nil
}

// day runs the next delivery day over the undelivered ads and records it —
// including the exact ad set — in the oplog on commit.
func (w *workload) day(ctx context.Context, tick int) error {
	if len(w.undelivered) == 0 {
		return fmt.Errorf("no undelivered ads for the day at tick %d", tick)
	}
	seed := w.daySeedBase + int64(w.days)
	ids := append([]string(nil), w.undelivered...)
	if err := w.client.Deliver(ctx, ids, seed); err != nil {
		return err
	}
	w.days++
	w.undelivered = nil
	w.oplog = append(w.oplog, op{Kind: "day", Tick: tick, Seed: seed, AdIDs: ids})
	fmt.Printf("[day] seed %d committed over %d ads\n", seed, len(ids))
	return nil
}

// replayDay replays a committed day (undisturbed fleet) over the recorded
// ad set, and retires those ads from the undelivered pool so the mirrored
// verification day runs over the same remainder.
func (w *workload) replayDay(ctx context.Context, o op) error {
	if err := w.client.Deliver(ctx, o.AdIDs, o.Seed); err != nil {
		return err
	}
	w.days++
	delivered := make(map[string]bool, len(o.AdIDs))
	for _, id := range o.AdIDs {
		delivered[id] = true
	}
	kept := w.undelivered[:0]
	for _, id := range w.undelivered {
		if !delivered[id] {
			kept = append(kept, id)
		}
	}
	w.undelivered = kept
	return nil
}

func fleetDegradation(c *coordinator.Coordinator) (degraded, fullOutage bool) {
	states := c.Health().States()
	unhealthy := 0
	for _, s := range states {
		if s != supervisor.Healthy {
			unhealthy++
		}
	}
	return unhealthy > 0 && unhealthy < len(states), unhealthy == len(states)
}

// dumpDivergence saves every shard's full serialized state (/debug/state —
// the exact bytes the rejoin digest hashes) into the workdir, so a stuck
// digest gate can be diagnosed by diffing the dumps. Best-effort: a shard
// that will not answer simply leaves no file.
func dumpDivergence(workDir string, hosts []string) {
	for i, h := range hosts {
		resp, err := http.Get("http://" + h + "/debug/state")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() //adlint:allow walerr (best-effort diagnostic dump)
		if err != nil {
			continue
		}
		path := filepath.Join(workDir, fmt.Sprintf("diverge-shard%d.json", i))
		if os.WriteFile(path, body, 0o644) == nil {
			fmt.Printf("[heal] shard %d state dumped to %s\n", i, path)
		}
	}
}

func allHealthy(c *coordinator.Coordinator) bool {
	for _, s := range c.Health().States() {
		if s != supervisor.Healthy {
			return false
		}
	}
	return true
}

// insightsDigest hashes the full wire-level delivery report of every ad
// (plain insights + the age×gender×region breakdown), ad IDs normalized to
// their index — the same digest the coordinator e2e tests assert on.
func insightsDigest(ctx context.Context, client *marketing.Client, ids []string) (string, error) {
	type adReport struct {
		Full  *marketing.InsightsResponse `json:"full"`
		Cells *marketing.InsightsResponse `json:"cells"`
	}
	reports := make([]adReport, 0, len(ids))
	for i, id := range ids {
		full, err := client.Insights(ctx, id)
		if err != nil {
			return "", err
		}
		cells, err := client.InsightsBreakdown(ctx, id, "age", "gender", "region")
		if err != nil {
			return "", err
		}
		full.AdID = fmt.Sprintf("ad#%d", i)
		cells.AdID = full.AdID
		reports = append(reports, adReport{Full: full, Cells: cells})
	}
	b, err := json.Marshal(reports)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func writeReport(path string, report *benchReport) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
