// Command adplatform serves the simulated advertising platform's marketing
// API over TCP, for driving the audit from external tooling (or from the
// examples in this repository). It builds the synthetic world — FL/NC voter
// registries, the matched user population, and the platform with its trained
// delivery-optimization model — then listens until interrupted.
//
// Usage:
//
//	adplatform -addr 127.0.0.1:8399 -scale bench -seed 7
//
// The server also writes the generated voter extracts to -voterdir (if set),
// so an external auditor can parse them exactly as it would the real public
// records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adplatform:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adplatform", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8399", "listen address")
	worldOf := node.WorldFlags(fs, node.WorldConfig{Seed: 1, Voters: 40000, LogRows: 30000})
	voterDir := fs.String("voterdir", "", "directory to write FL/NC voter extracts into (optional)")
	stackOf := node.StackFlags(fs, "snapshot-every")
	reviewReject := fs.Float64("review-reject", -1, "override the ad-review rejection probability (0..1; negative keeps the default) — every shard in one fleet must agree")
	snapshotEvery := fs.Int("snapshot-every", 5000, "write a snapshot and compact the WAL every N records (0 disables automatic snapshots; requires -store-dir)")
	deliveryWorkers := fs.Int("delivery-workers", 1, "default delivery shard count for /v1/deliver (1 = sequential oracle engine; requests may override)")
	drainTimeout := node.DrainTimeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stackCfg, err := stackOf()
	if err != nil {
		return err
	}
	stackCfg.Store.SnapshotEvery = *snapshotEvery
	if *reviewReject > 1 {
		return fmt.Errorf("-review-reject %v out of range [0,1]", *reviewReject)
	}
	worldCfg := worldOf()
	platCfg := worldCfg.PlatformConfig()
	platCfg.DeliveryWorkers = *deliveryWorkers
	if *reviewReject >= 0 {
		platCfg.ReviewRejectProb = *reviewReject
	}

	fmt.Printf("generating registries (%d voters per state), building population and training the platform...\n", worldCfg.Voters)
	world, err := worldCfg.Build(platCfg)
	if err != nil {
		return err
	}
	if *voterDir != "" {
		if err := writeExtracts(*voterDir, world.FL, world.NC); err != nil {
			return err
		}
	}
	stack, err := node.NewStack(world.Platform, stackCfg, os.Stdout)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return errors.Join(err, stack.Close())
	}
	fmt.Printf("marketing API listening at http://%s (%d users); metrics at /metrics, liveness at /healthz\n",
		ln.Addr(), world.Pop.Len())

	// The store closes only after the drain: by then the WAL tail is final. A
	// load-test session ends with a server-side record of what was served.
	drainErr := node.Serve(ln, stack.Handler, *drainTimeout, nil)
	if err := errors.Join(drainErr, stack.Close()); err != nil {
		return err
	}
	fmt.Println("final serving metrics:")
	fmt.Print(stack.Server.Metrics().Snapshot().String())
	return nil
}

func writeExtracts(dir string, fl, nc *voter.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	flPath := filepath.Join(dir, "fl_voter_extract.txt")
	f, err := os.Create(flPath)
	if err != nil {
		return err
	}
	if err := voter.WriteFL(f, fl.Records); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	ncPath := filepath.Join(dir, "ncvoter.txt")
	g, err := os.Create(ncPath)
	if err != nil {
		return err
	}
	if err := voter.WriteNC(g, nc.Records); err != nil {
		return errors.Join(err, g.Close())
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", flPath, ncPath)
	return nil
}
