// Command adload drives seeded advertiser traffic against the marketing API.
// It either targets a running adplatform server (or an adrouter) over TCP or
// self-hosts an in-process one, runs virtual-advertiser scenarios (upload
// audience → create campaign → create ads → deliver → poll insights) on a
// closed worker pool, prints one account line and exits non-zero if any
// scenario failed. It measures nothing: serving latency and throughput are
// bench/'s serve and fleet_2shard workloads.
//
// Self-hosted smoke run (deterministic workload under a fixed seed):
//
//	adload -scenarios 6 -concurrency 3 -seed 1
//
// Against a running server (hashes come from the voter extract the server
// wrote with -voterdir):
//
//	adplatform -addr 127.0.0.1:8399 -voterdir /tmp/voters &
//	adload -target http://127.0.0.1:8399 -voterfile /tmp/voters/fl_voter_extract.txt \
//	       -scenarios 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/loadgen"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
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
	concurrency := fs.Int("concurrency", 4, "worker-pool size")
	scenarios := fs.Int("scenarios", 8, "virtual advertisers to run")
	ads := fs.Int("ads", 2, "ads per campaign")
	audience := fs.Int("audience", 200, "PII hashes per audience upload")
	retries := fs.Int("retries", 0, "client max attempts per API call (0 = library default)")
	worldOf := node.WorldFlags(fs, node.WorldConfig{Seed: 1, Voters: 8000, LogRows: 3000, FLOnly: true})
	stackOf := node.StackFlags(fs)
	faultsOf := node.FaultFlags(fs)
	deliveryWorkers := fs.Int("delivery-workers", 0, "delivery shard count sent with every deliver call (0 = one shard on a single adplatform, the fleet width behind adrouter; 1 = sequential oracle)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Each side's flags would silently do nothing on the other: the server
	// flags configure the self-hosted world and server, and a self-hosted run
	// takes its hashes from that world rather than from -voterfile.
	var err error
	if *target != "" {
		err = node.RejectSet(fs, "the self-hosted server", "-target",
			"voters", "logrows", "shed-cap", "store-dir", "fsync", "privacy-k", "privacy-epsilon", "privacy-seed")
	} else {
		err = node.RejectSet(fs, "-target", "a self-hosted run", "voterfile")
	}
	if err != nil {
		return err
	}
	stackCfg, err := stackOf()
	if err != nil {
		return err
	}
	faultCfg, err := faultsOf()
	if err != nil {
		return err
	}
	// The counts are refused, under the flag the user typed, before a
	// self-hosted world is built; loadgen.New would refuse the same values
	// under its Config field names.
	if err := errors.Join(node.Positive("concurrency", *concurrency), node.Positive("scenarios", *scenarios),
		node.Positive("ads", *ads), node.Positive("audience", *audience), node.NonNegative("retries", *retries),
		node.NonNegative("delivery-workers", *deliveryWorkers)); err != nil {
		return err
	}
	worldCfg, err := worldOf()
	if err != nil {
		return err
	}
	loadCfg := loadgen.Config{
		Seed:            worldCfg.Seed,
		Workers:         *concurrency,
		Scenarios:       *scenarios,
		AdsPerCampaign:  *ads,
		AudienceSize:    *audience,
		DeliveryWorkers: *deliveryWorkers,
	}

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
	loadCfg.Hashes = hashes
	runner, err := loadgen.New(loadCfg, client)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "running %d scenarios against %s...\n", *scenarios, baseURL)
	completed, failed, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d/%d scenarios completed; %d retries, %d faults injected\n",
		completed, completed+failed,
		client.Metrics().Counter(marketing.MetricClientRetries).Value(),
		faultReg.Counter(faults.MetricInjected).Value())
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, completed+failed)
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
