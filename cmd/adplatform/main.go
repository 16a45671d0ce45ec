// Command adplatform serves the simulated advertising platform's marketing
// API over TCP, for driving the audit from external tooling (or from the
// examples in this repository). It builds the synthetic world — FL/NC voter
// registries drawn and indexed in one pass, the matched user population, and
// the platform with its trained delivery-optimization model — then listens
// until interrupted.
//
// Usage:
//
//	adplatform -addr 127.0.0.1:8399 -scale bench -seed 7
//
// With -voterdir the server regenerates the voter registries and writes them
// there as extracts, so an external auditor can parse them exactly as it
// would the real public records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"

	"github.com/adaudit/impliedidentity/internal/demo"
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
	stackOf := node.StackFlags(fs)
	reviewReject := fs.Float64("review-reject", -1, "override the ad-review rejection probability (0..1; negative keeps the default) — every shard in one fleet must agree")
	drainTimeout := node.DrainTimeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stackCfg, err := stackOf()
	if err != nil {
		return err
	}
	if !(*reviewReject <= 1) {
		return fmt.Errorf("-review-reject %v out of range [0,1]", *reviewReject)
	}
	worldCfg, err := worldOf()
	if err != nil {
		return err
	}
	platCfg := worldCfg.PlatformConfig()
	if *reviewReject >= 0 {
		platCfg.ReviewRejectProb = *reviewReject
	}

	fmt.Printf("generating registries (%d voters per state), building population and training the platform...\n", worldCfg.Voters)
	world, err := worldCfg.Build(platCfg)
	if err != nil {
		return err
	}
	if *voterDir != "" {
		if err := writeExtracts(*voterDir, worldCfg); err != nil {
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

// writeExtracts regenerates the world's two voter registries, one at a
// time, and writes them to dir in the FL and NC extract layouts.
func writeExtracts(dir string, wc node.WorldConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var paths []string
	for _, ex := range []struct {
		state demo.State
		name  string
		write func(io.Writer, []voter.Record) error
	}{
		{demo.StateFL, "fl_voter_extract.txt", voter.WriteFL},
		{demo.StateNC, "ncvoter.txt", voter.WriteNC},
	} {
		reg, err := wc.Registry(ex.state)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, ex.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := ex.write(f, reg.Records); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	fmt.Printf("wrote %s and %s\n", paths[0], paths[1])
	return nil
}
