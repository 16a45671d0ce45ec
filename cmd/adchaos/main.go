// Command adchaos runs the chaos soak (internal/chaos.Soak) against real
// processes: a fleet of adplatform children behind an in-process router and
// supervisor is loaded and disturbed on a seeded schedule — kill -9,
// SIGSTOP/SIGCONT, slowed and partitioned links — and the operations it
// acknowledged are replayed against a second, undisturbed fleet. It exits
// non-zero unless both end byte-identical on the wire-level insights surface,
// no acknowledged write is lost and every refusal was typed. `go test
// ./internal/chaos` runs the same soak over a simulated fleet by the hundred;
// this binary is the check that its kill is what a real kill -9 does.
//
// Usage:
//
//	go build -o bin/adplatform ./cmd/adplatform
//	go run ./cmd/adchaos -shard-bin bin/adplatform
package main

import (
	"context"
	"flag"
	"fmt"
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
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

const (
	// basePort is the disturbed fleet's first shard port; the undisturbed
	// fleet's is 100 above it. bootTimeout is the budget for a fleet's
	// children to build their world and answer /healthz.
	basePort    = 8460
	bootTimeout = 4 * time.Minute
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adchaos:", err)
		os.Exit(1)
	}
}

type options struct {
	shardBin string
	shards   int
	world    node.WorldConfig
	schedule chaos.Config
	ticks    int
	tickLen  time.Duration
	workDir  string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("adchaos", flag.ContinueOnError)
	fs.StringVar(&o.shardBin, "shard-bin", "", "path to the adplatform binary to spawn as shard children (required)")
	fs.IntVar(&o.shards, "shards", 2, "fleet width")
	worldOf := node.WorldFlags(fs, node.WorldConfig{Seed: 7, Voters: 4000, LogRows: 1500}) // every child builds this world
	fs.Int64Var(&o.schedule.Seed, "chaos-seed", 1, "chaos schedule seed (same seed, same disturbances)")
	fs.Float64Var(&o.schedule.Rate, "rate", 0.6, "disturbance probability per eligible tick")
	actions := fs.String("actions", "all", "eligible disturbances (kill,pause,slow,partition) or all")
	fs.IntVar(&o.ticks, "ticks", 24, "chaos/workload ticks (one CRUD op per tick)")
	fs.DurationVar(&o.tickLen, "tick", chaos.TickLen, "tick cadence")
	fs.StringVar(&o.workDir, "workdir", "", "working directory for WALs and child logs (default: a temp dir)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.schedule.Actions, err = chaos.ParseActions(*actions); err != nil {
		return o, err
	}
	switch {
	case o.shardBin == "":
		return o, fmt.Errorf("-shard-bin is required (build ./cmd/adplatform first)")
	case o.shards < 1 || o.ticks < 1 || o.tickLen <= 0:
		return o, fmt.Errorf("-shards %d, -ticks %d and -tick %s must all be positive", o.shards, o.ticks, o.tickLen)
	}
	o.world, o.schedule.Shards = worldOf(), o.shards
	return o, nil
}

func run(args []string) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	sched, err := chaos.NewSchedule(opts.schedule)
	if err != nil {
		return err
	}
	if opts.workDir == "" {
		if opts.workDir, err = os.MkdirTemp("", "adchaos-"); err != nil {
			return err
		}
	}
	fmt.Printf("workdir: %s\n", opts.workDir)
	// The audience is the head of the FL registry every child generates,
	// hashed client-side.
	fl, err := opts.world.Registry(demo.StateFL)
	if err != nil {
		return err
	}
	res, err := chaos.Soak(context.Background(), chaos.SoakConfig{
		Schedule: sched,
		Ticks:    opts.ticks,
		Hashes:   node.PIIHashes(fl.Records[:min(600, len(fl.Records))]),
		Logf:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}, func(durable bool) (chaos.Deployment, error) {
		if durable {
			return startFleet(opts, "disturbed", basePort, true)
		}
		return startFleet(opts, "undisturbed", basePort+100, false)
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos soak OK: digest %s identical across %d disturbances; %d operations acknowledged, %d refused (typed)\n",
		res.Digest, len(res.Events), len(res.Ops), res.Refused)
	return nil
}

// procTarget is the chaos Target over real processes: signals for the
// children, a client-side gate for their links. A signal that cannot be
// delivered is reported and swallowed: the schedule is blind to the
// supervisor's relaunch timing by design, so killing or pausing a child
// that is already dead is a no-op, not a failure.
type procTarget struct {
	chaos.Links
	rel *supervisor.ProcessRelauncher
}

func (t *procTarget) signal(what string, shard int, sig os.Signal) error {
	if err := t.rel.Signal(shard, sig); err != nil {
		fmt.Printf("  (%s shard %d: %v)\n", what, shard, err)
	}
	return nil
}

func (t *procTarget) Kill(shard int) error   { return t.signal("kill", shard, supervisor.SigKill) }
func (t *procTarget) Pause(shard int) error  { return t.signal("pause", shard, supervisor.SigStop) }
func (t *procTarget) Resume(shard int) error { return t.signal("resume", shard, supervisor.SigCont) }

// procFleet is the chaos Deployment over real processes: adplatform children
// behind an in-process router serving real HTTP, the supervisor in its own
// goroutine.
type procFleet struct {
	procTarget
	*chaos.Control
	client  *marketing.Client
	httpSrv *http.Server
	tickLen time.Duration
}

func startFleet(opts options, tag string, firstPort int, durable bool) (_ *procFleet, err error) {
	dir := filepath.Join(opts.workDir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	hosts := make([]string, opts.shards)
	backends := make([]string, opts.shards)
	argv := make([][]string, opts.shards)
	logs := make([]string, opts.shards)
	for i := range hosts {
		hosts[i] = "127.0.0.1:" + strconv.Itoa(firstPort+i)
		backends[i] = "http://" + hosts[i]
		argv[i] = []string{
			opts.shardBin, "-addr", hosts[i],
			"-seed", strconv.FormatInt(opts.world.Seed, 10),
			"-voters", strconv.Itoa(opts.world.Voters),
			"-logrows", strconv.Itoa(opts.world.LogRows),
			"-review-reject", strconv.FormatFloat(chaos.ReviewReject, 'g', -1, 64),
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
	defer func() {
		if err != nil {
			rel.StopAll()
		}
	}()
	for i := range argv {
		if err := rel.Start(i); err != nil {
			return nil, err
		}
	}
	if err := node.WaitHealthy(backends, bootTimeout); err != nil {
		return nil, err
	}
	f := &procFleet{procTarget: procTarget{chaos.Links{Gate: faults.NewGate(), Hosts: hosts}, rel}, tickLen: opts.tickLen}
	f.Control, err = chaos.NewControl(
		coordinator.Config{Backends: backends, Transport: faults.NewTransport(nil, nil, f.Gate, nil)}, rel,
		func(format string, args ...any) { fmt.Printf("[sup] "+format+"\n", args...) })
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.httpSrv = &http.Server{Handler: f.Router, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = f.httpSrv.Serve(ln) }()
	if f.client, err = marketing.NewClient("http://" + ln.Addr().String()); err != nil {
		_ = f.httpSrv.Close()
		return nil, err
	}
	f.client.SetRetryPolicy(chaos.ClientRetry)
	f.Sup.Start(context.Background())
	fmt.Printf("[%s] fleet up: router http://%s, shards %v\n", tag, ln.Addr(), hosts)
	return f, nil
}

func (f *procFleet) Client() *marketing.Client { return f.client }
func (f *procFleet) Tick(context.Context)      { time.Sleep(f.tickLen) }

func (f *procFleet) Close() error {
	f.Sup.Stop()
	err := f.httpSrv.Close()
	f.rel.StopAll()
	return err
}
