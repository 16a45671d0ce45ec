// Command adload drives seeded advertiser traffic against a running
// marketing API: an adplatform server or an adrouter in front of a fleet. It
// runs virtual-advertiser scenarios (upload audience → create campaign →
// create ads → deliver → poll insights) on a closed worker pool, prints one
// account line and exits non-zero if any scenario failed. It measures
// nothing: serving latency and throughput are bench/'s serve and
// fleet_2shard workloads.
//
// The audiences are hashed from the FL voter extract the server wrote with
// -voterdir, as an auditor hashes public records; a fixed -seed sends the
// same requests:
//
//	adplatform -addr 127.0.0.1:8399 -voterdir /tmp/voters &
//	adload -target http://127.0.0.1:8399 -voterfile /tmp/voters/fl_voter_extract.txt \
//	       -scenarios 50 -seed 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	target := fs.String("target", "", "base URL of a running adplatform or adrouter (required)")
	voterFile := fs.String("voterfile", "", "FL-layout voter extract to derive audience PII hashes from: the target's adplatform -voterdir wrote it (required)")
	seed := fs.Int64("seed", 1, "workload seed: runs with the same -seed and counts send the same requests")
	concurrency := fs.Int("concurrency", 4, "worker-pool size")
	scenarios := fs.Int("scenarios", 8, "virtual advertisers to run")
	ads := fs.Int("ads", 2, "ads per campaign")
	audience := fs.Int("audience", 200, "PII hashes per audience upload")
	retries := fs.Int("retries", 0, "client max attempts per API call (0 = library default)")
	faultsOf := node.FaultFlags(fs)
	deliveryWorkers := fs.Int("delivery-workers", 0, "delivery shard count sent with every deliver call (0 = one shard on a single adplatform, the fleet width behind adrouter; 1 = sequential oracle)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The counts are refused under the flag the user typed; loadgen.New
	// would refuse the same values under its Config field names.
	if err := errors.Join(node.Positive("concurrency", *concurrency), node.Positive("scenarios", *scenarios),
		node.Positive("ads", *ads), node.Positive("audience", *audience), node.NonNegative("retries", *retries),
		node.NonNegative("delivery-workers", *deliveryWorkers)); err != nil {
		return err
	}
	faultCfg, err := faultsOf()
	if err != nil {
		return err
	}
	if *target == "" || *voterFile == "" {
		return errors.New("-target and -voterfile are both required: adload drives a running server (start adplatform with -voterdir for the extract)")
	}
	hashes, err := hashesFromExtract(*voterFile)
	if err != nil {
		return err
	}

	client, err := marketing.NewClient(*target)
	if err != nil {
		return err
	}
	// Faults hit the workload's requests on their way out, so the retry layer
	// under test sees them.
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
	runner, err := loadgen.New(loadgen.Config{
		Seed:            *seed,
		Workers:         *concurrency,
		Scenarios:       *scenarios,
		AdsPerCampaign:  *ads,
		AudienceSize:    *audience,
		DeliveryWorkers: *deliveryWorkers,
		Hashes:          hashes,
	}, client)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "running %d scenarios against %s...\n", *scenarios, *target)
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
