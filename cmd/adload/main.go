// Command adload generates concurrent advertiser traffic against the
// marketing API and reports serving latency and throughput. It either
// targets a running adplatform server over TCP or self-hosts an in-process
// one, runs virtual-advertiser scenarios (upload audience → create campaign
// → create ads → deliver → poll insights) in closed-loop or open-loop mode,
// prints a human summary table, and optionally writes the run's
// machine-readable JSON report.
//
// Self-hosted smoke run (deterministic workload under a fixed seed):
//
//	adload -scenarios 6 -concurrency 3 -seed 1 -out /tmp/report.json
//
// Against a running server (hashes come from the voter extract the server
// wrote with -voterdir):
//
//	adplatform -addr 127.0.0.1:8399 -voterdir /tmp/voters &
//	adload -target http://127.0.0.1:8399 -voterfile /tmp/voters/fl_voter_extract.txt \
//	       -mode open -rps 10 -scenarios 50
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/loadgen"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/report"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("adload", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running adplatform server; empty self-hosts one in-process")
	voterFile := fs.String("voterfile", "", "FL-layout voter extract to derive audience PII hashes from (required with -target)")
	mode := fs.String("mode", "closed", "driving discipline: closed (fixed concurrency) or open (Poisson arrivals)")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	rps := fs.Float64("rps", 4, "open-loop scenario arrival rate per second")
	scenarios := fs.Int("scenarios", 8, "virtual advertisers to run")
	ads := fs.Int("ads", 2, "ads per campaign")
	audience := fs.Int("audience", 200, "PII hashes per audience upload")
	retries := fs.Int("retries", 0, "client max attempts per API call (0 = library default)")
	out := fs.String("out", "", "path to write the JSON report (schema adaudit/bench-serving/v1)")
	worldOf := node.WorldFlags(fs, node.WorldConfig{Seed: 1, Voters: 8000, LogRows: 3000, FLOnly: true})
	stackOf := node.StackFlags(fs)
	faultsOf := node.FaultFlags(fs)
	deliveryWorkers := fs.Int("delivery-workers", 0, "delivery shard count sent with every deliver call (0 = one shard on a single adplatform, the fleet width behind adrouter; 1 = sequential oracle)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A discipline's rate flag means nothing to the other one, so setting it
	// there is refused rather than ignored.
	var err error
	switch loadgen.Mode(*mode) {
	case loadgen.ModeClosed:
		err = node.RejectSet(fs, "open mode", "-mode closed", "rps")
	case loadgen.ModeOpen:
		err = node.RejectSet(fs, "closed mode", "-mode open", "concurrency")
	default:
		err = fmt.Errorf("unknown mode %q (want %s or %s)", *mode, loadgen.ModeClosed, loadgen.ModeOpen)
	}
	if err != nil {
		return err
	}
	if *target != "" {
		// These configure the self-hosted world and server; against a remote
		// one they would silently do nothing. (-privacy-k/-privacy-epsilon stay
		// legal with -target: they record the remote policy in the report; the
		// seed is server-side only.)
		if err := node.RejectSet(fs, "the self-hosted server", "-target",
			"voters", "logrows", "shed-cap", "store-dir", "fsync", "privacy-seed"); err != nil {
			return err
		}
	}
	stackCfg, err := stackOf()
	if err != nil {
		return err
	}
	faultCfg, err := faultsOf()
	if err != nil {
		return err
	}
	worldCfg := worldOf()

	baseURL := *target
	var hashes []string
	if *target == "" {
		fmt.Fprintf(stdout, "self-hosting a platform (%d voters, seed %d)...\n", worldCfg.Voters, worldCfg.Seed)
		// No ad-review rejection (default 1%), so the request counts of a
		// fixed-seed run are exactly reproducible. Review strictness has its
		// own coverage in internal/platform.
		platCfg := worldCfg.PlatformConfig()
		platCfg.ReviewRejectProb = 0
		world, err := worldCfg.Build(platCfg)
		if err != nil {
			return err
		}
		stack, err := node.NewStack(world.Platform, stackCfg, stdout)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(stack.Handler)
		defer func() {
			ts.Close()
			if err := stack.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "adload:", err)
			}
		}()
		baseURL = ts.URL
		hashes = node.PIIHashes(world.FL.Entries)
	} else {
		if *voterFile == "" {
			return fmt.Errorf("targeting %s requires -voterfile to build audiences (run adplatform with -voterdir)", *target)
		}
		if hashes, err = hashesFromExtract(*voterFile); err != nil {
			return err
		}
	}

	client, err := marketing.NewClient(baseURL)
	if err != nil {
		return err
	}
	// Faults hit the workload's requests on their way out, so the retry layer
	// under test sees them whether the server is in-process or remote.
	faultReg := obs.NewRegistry()
	transport, err := node.FaultTransport(faultCfg, faultReg, stdout)
	if err != nil {
		return err
	}
	client.SetTransport(transport)
	if *retries > 0 {
		pol := marketing.DefaultRetryPolicy()
		pol.MaxAttempts = *retries
		client.SetRetryPolicy(pol)
	}
	// The topology probe and the metrics scrape go through a client of their
	// own, so the report's retry count covers only the workload.
	probe, err := newProbeClient(baseURL)
	if err != nil {
		return err
	}
	// A router target answers GET /v1/topology; a single adplatform 404s it.
	// Recording the shard count keeps multi-process bench reports
	// distinguishable from single-process ones.
	shardCount := probeTopology(probe)
	if shardCount > 0 {
		fmt.Fprintf(stdout, "target is a router over %d shard(s)\n", shardCount)
	}
	runner, err := loadgen.New(loadgen.Config{
		Seed:            worldCfg.Seed,
		Mode:            loadgen.Mode(*mode),
		Workers:         *concurrency,
		ArrivalRPS:      *rps,
		Scenarios:       *scenarios,
		AdsPerCampaign:  *ads,
		AudienceSize:    *audience,
		Hashes:          hashes,
		DeliveryWorkers: *deliveryWorkers,
		ShardCount:      shardCount,
		Privacy:         stackCfg.Privacy,
	}, client)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "running %d scenarios (%s mode) against %s...\n", *scenarios, *mode, baseURL)
	rep, err := runner.Run(context.Background())
	if err != nil {
		return err
	}

	rep.FaultsInjected = faultReg.Counter(faults.MetricInjected).Value()
	if snap, err := fetchMetrics(probe); err == nil {
		rep.ServerMetrics = snap
		rep.RequestsShed = snap.Counters[obs.MetricRequestsShed]
	} else {
		fmt.Fprintf(stdout, "warning: could not scrape %s/metrics: %v\n", baseURL, err)
	}

	fmt.Fprint(stdout, summarize(rep))
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// hashesFromExtract derives the audience hash pool from an FL-layout voter
// extract, the same client-side hashing path the audit tooling uses.
func hashesFromExtract(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := voter.ParseFL(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return node.RecordHashes(records), nil
}

// newProbeClient builds the client for the target's side routes: one
// attempt per call, as a probe should make.
func newProbeClient(baseURL string) (*marketing.Client, error) {
	probe, err := marketing.NewClient(baseURL)
	if err != nil {
		return nil, err
	}
	probe.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 1})
	return probe, nil
}

// probeTopology asks the target whether it is a router (GET /v1/topology)
// and returns its shard count; 0 means a single-process target (or an
// unreachable one — the load run itself will surface that).
func probeTopology(probe *marketing.Client) int {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var topo struct {
		Shards int `json:"shards"`
	}
	if err := probe.Get(ctx, "/v1/topology", &topo); err != nil {
		return 0
	}
	return topo.Shards
}

// fetchMetrics scrapes the target's GET /metrics endpoint.
func fetchMetrics(probe *marketing.Client) (*obs.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var snap obs.Snapshot
	if err := probe.Get(ctx, "/metrics", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// summarize renders the human-readable result: the per-operation latency
// table plus, when available, the server-side per-endpoint view.
func summarize(rep *loadgen.Report) string {
	title := fmt.Sprintf("Serving load test — %s mode, seed %d, %d/%d scenarios",
		rep.Mode, rep.Seed, rep.ScenariosCompleted, rep.Scenarios)
	rows := make([]report.ServingRow, 0, len(rep.Operations))
	for _, op := range loadgen.Ops {
		o, ok := rep.Operations[op]
		if !ok {
			continue
		}
		rows = append(rows, report.ServingRow{
			Op:       op,
			Requests: o.Requests,
			Errors:   o.Errors,
			P50Ms:    o.Latency.P50Ms,
			P90Ms:    o.Latency.P90Ms,
			P99Ms:    o.Latency.P99Ms,
			MaxMs:    o.Latency.MaxMs,
		})
	}
	out := report.ServingSummary(title, rows, rep.WallSeconds, rep.ThroughputRPS, rep.Errors,
		report.ServingResilience{
			Retries:        rep.Retries,
			RequestsShed:   rep.RequestsShed,
			FaultsInjected: rep.FaultsInjected,
		})
	if rep.ServerMetrics != nil {
		out += fmt.Sprintf("server: %d requests counted, %d in flight at scrape\n",
			rep.ServerMetrics.Counters[obs.MetricRequests],
			rep.ServerMetrics.Gauges[obs.MetricInFlight])
	}
	return out
}
