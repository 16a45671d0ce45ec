// Command adrouter serves the marketing API over a fleet of adplatform shard
// backends. It is the multi-process face of the platform: advertiser tooling
// (cmd/adload, cmd/adaudit, curl) points at the router exactly as it would at
// a single adplatform, while CRUD fans out to every shard and delivery days
// run the cross-shard two-phase budget protocol. For a fixed (world seed,
// delivery seed, shard count) the fleet's output is byte-identical to the
// single-process engine with the same worker count.
//
// Every backend must be built with the SAME world flags (-seed, -voters,
// -logrows); the router asserts cross-shard agreement on every response and
// fails loudly on divergence.
//
// The router always runs the fleet supervisor: it probes every shard,
// quarantines one that stops answering (CRUD keeps running against the
// survivors) and rejoins it once it answers again. A rejoining shard takes
// the replicated account from an admitted peer and is readmitted once its
// state digest equals the peer's. With -shard-cmd the router also owns the
// shard child processes outright: it spawns them at boot and resurrects a
// dead one under the SAME shard index, which recovers from its own WAL
// first. Without it the coordinator's supervision pass only re-attaches
// shards that an external process manager restarts.
//
// Usage:
//
//	adrouter -addr 127.0.0.1:8400 \
//	  -shards http://127.0.0.1:8401,http://127.0.0.1:8402
//
//	adrouter -addr 127.0.0.1:8400 \
//	  -shards http://127.0.0.1:8401,http://127.0.0.1:8402 \
//	  -shard-cmd './bin/adplatform -addr {addr} -store-dir wal/shard{shard}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adrouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8400", "listen address")
	shards := fs.String("shards", "", "comma-separated shard backend base URLs, in shard order (required)")
	drainTimeout := node.DrainTimeoutFlag(fs)
	shardCmd := fs.String("shard-cmd", "", "shard child command template ({shard} and {addr} expand per shard); the router spawns the children at boot and the supervisor resurrects dead ones under the same index")
	shardLogDir := fs.String("shard-log-dir", "", "directory for per-shard child logs (with -shard-cmd; appended across relaunches)")
	faultsOf := node.FaultFlags(fs)
	privacyOf := node.PrivacyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backends, err := splitBackends(*shards)
	if err != nil {
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("-shards is required (comma-separated backend URLs)")
	}
	faultCfg, err := faultsOf()
	if err != nil {
		return err
	}
	privCfg, err := privacyOf()
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	// Faults sit on the router->shard RPC path: every fan-out call and every
	// supervision probe crosses it, exactly like a flaky network between router
	// and fleet. Injected error ANSWERS must not flap the health model; only
	// transport silence scores toward down.
	transport, err := node.FaultTransport(faultCfg, reg, os.Stdout)
	if err != nil {
		return err
	}
	if privCfg.Enabled() {
		fmt.Printf("insights privacy armed on the merged report: level %s, k=%d, epsilon=%v, seed %d\n",
			privCfg.Level, privCfg.K, privCfg.Epsilon, privCfg.Seed)
	}

	// With a command template the router owns the shard children: initial
	// spawn here, resurrection by the coordinator's supervision pass, SIGKILL
	// sweep on exit. Without one the pass re-attaches only (an external
	// process manager restarts the children), and the Relauncher must stay a
	// nil interface, not a nil *node.ShardProcs.
	ccfg := coordinator.Config{Backends: backends, Transport: transport, Privacy: privCfg, Logf: log.Printf}
	var rel *node.ShardProcs
	if *shardCmd != "" {
		argv, logs, err := shardCommandLines(*shardCmd, *shardLogDir, backends)
		if err != nil {
			return err
		}
		if rel, err = node.StartShards(argv, logs); err != nil {
			return err
		}
		defer rel.StopAll()
		for i := range argv {
			fmt.Printf("  shard%d child: pid %d (%s)\n", i, rel.Pid(i), strings.Join(argv[i], " "))
		}
		ccfg.Relauncher = rel
	}
	coord, err := coordinator.New(ccfg, reg)
	if err != nil {
		return err
	}

	if err := node.WaitHealthy(backends, 30*time.Second); err != nil {
		return err
	}
	router, err := coordinator.NewRouter(coord, reg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("router listening at http://%s over %d shard(s); topology at /v1/topology, metrics at /metrics\n",
		ln.Addr(), coord.Shards())
	for i, u := range backends {
		fmt.Printf("  shard%d -> %s\n", i, u)
	}

	// The supervision loop runs under the signal's context: once draining
	// begins it must not resurrect shards the same signal is taking down.
	defer coord.Stop()
	fmt.Printf("fleet supervisor running (relaunch %v)\n", rel != nil)
	drainErr := node.Serve(ln, router.Handler(), *drainTimeout, coord.Start)
	fmt.Println("final router metrics:")
	fmt.Print(reg.Snapshot().String())
	return drainErr
}

// shardCommandLines renders the -shard-cmd template once per shard:
// {shard} -> the shard index, {addr} -> the backend's host:port. The rendered
// line is whitespace-split (no shell), so paths with spaces need the caller to
// avoid them — a restriction worth the determinism of not involving a shell.
func shardCommandLines(tmpl, logDir string, backends []string) ([][]string, []string, error) {
	argv := make([][]string, len(backends))
	logs := make([]string, len(backends))
	for i, backend := range backends {
		u, _ := url.Parse(backend) // splitBackends refused every entry without a host
		line := strings.ReplaceAll(tmpl, "{shard}", strconv.Itoa(i))
		line = strings.ReplaceAll(line, "{addr}", u.Host)
		argv[i] = strings.Fields(line)
		if len(argv[i]) == 0 {
			return nil, nil, fmt.Errorf("-shard-cmd rendered empty for shard %d", i)
		}
		if logDir != "" {
			if err := os.MkdirAll(logDir, 0o755); err != nil {
				return nil, nil, err
			}
			logs[i] = filepath.Join(logDir, fmt.Sprintf("shard%d.log", i))
		}
	}
	return argv, logs, nil
}

// splitBackends parses the -shards list, refusing an entry that is not an
// http or https URL with a host (marketing.NewClient's rule) before any shard
// is launched.
func splitBackends(raw string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(raw, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			continue
		}
		if u, err := url.Parse(p); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-shards entry %q is not an http:// or https:// URL with a host", p)
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out, nil
}
