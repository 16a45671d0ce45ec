package chaos

// Fleet is a whole serving fleet in one process: the shards are node.Stacks —
// what cmd/adplatform serves — over one shared world, each with its own WAL
// directory; the router is coordinator.New + NewRouter, the coordinator's
// supervision pass stepped through its exported Step. Nothing here stands in
// for production code. What is simulated is the network — an
// http.RoundTripper that hands a request to the handler its URL's host names
// — and time: one obs.ManualClock behind every backoff, slowed link and
// health timestamp, which moves only when something sleeps on it. A
// schedule that takes 18 s of wall over real processes takes a fraction of a
// second here, and the same seed replays to the same bytes.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// The settings a soaked fleet runs with, real processes or simulated.
const (
	// ReviewReject is the shards' ad-review rejection rate: high enough that
	// a 24-tick soak sees rejections and appeals.
	ReviewReject = 0.25
	// TickLen is one workload tick of a simulated fleet: three supervision
	// passes a probeInterval apart.
	TickLen       = 750 * time.Millisecond
	probeInterval = 250 * time.Millisecond
	probeTimeout  = time.Second
	// slowDelay is what a slowed link adds to every RPC.
	slowDelay = 150 * time.Millisecond
)

// ShardRetry and ClientRetry are the retry policies of the coordinator's
// shard clients and of the workload's client at the router. The second is
// generous: a single-shard outage surfaces as transient 502s until the
// quarantine lands, and the workload must ride through them.
var (
	ShardRetry  = marketing.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	ClientRetry = marketing.RetryPolicy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: 600 * time.Millisecond}
)

// Control is the router side of a fleet: the coordinator, which supervises
// the shards, and the router's handler over it, sharing one registry.
type Control struct {
	Coord  *coordinator.Coordinator
	Router http.Handler
	Reg    *obs.Registry
}

// NewControl assembles the router side over cfg.Backends. Zero fields of cfg
// take the soak's values: a day gets 8 attempts 300 ms apart, supervision
// passes run probeInterval apart, and a shard down 2 s is relaunched, at most
// once every 2 s.
func NewControl(cfg coordinator.Config) (*Control, error) {
	cfg.DayAttempts = cmp.Or(cfg.DayAttempts, 8)
	cfg.DayBackoff = cmp.Or(cfg.DayBackoff, 300*time.Millisecond)
	cfg.ProbeInterval = cmp.Or(cfg.ProbeInterval, probeInterval)
	cfg.ProbeTimeout = cmp.Or(cfg.ProbeTimeout, probeTimeout)
	cfg.RelaunchAfter = cmp.Or(cfg.RelaunchAfter, 2*time.Second)
	cfg.RelaunchBackoff = cmp.Or(cfg.RelaunchBackoff, 2*time.Second)
	reg := obs.NewRegistry()
	coord, err := coordinator.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	coord.SetRetryPolicy(ShardRetry)
	router, err := coordinator.NewRouter(coord, reg)
	if err != nil {
		return nil, err
	}
	return &Control{Coord: coord, Router: router.Handler(), Reg: reg}, nil
}

// Coordinator is the router's coordinator.
func (c *Control) Coordinator() *coordinator.Coordinator { return c.Coord }

// Links is the link half of a Target: a client-side gate on the router's
// side of the router→shard links, hosts in shard order.
type Links struct {
	Gate  *faults.Gate
	Hosts []string
}

func (l Links) SetSlow(shard int, on bool) {
	d := time.Duration(0)
	if on {
		d = slowDelay
	}
	l.Gate.SetSlow(l.Hosts[shard], d)
}

func (l Links) SetPartition(shard int, on bool) { l.Gate.SetPartition(l.Hosts[shard], on) }

// FleetConfig shapes a simulated fleet.
type FleetConfig struct {
	// World is shared by every shard. Platform configures the platform.New
	// each shard — and each relaunch of one — builds over it; the models are
	// trained once per world and configuration and shared.
	World    *node.World
	Platform platform.Config
	Shards   int
	// Dir holds one WAL directory per shard. Empty serves from memory only:
	// a killed shard then comes back with an empty account.
	Dir string
	// Stack configures every shard's serving stack; Store.Dir is the
	// fleet's to set.
	Stack node.StackConfig
	// Coordinator configures the router side (see NewControl); Backends,
	// Transport, Clock, Relauncher and Logf are the fleet's to set.
	Coordinator coordinator.Config
	// Injector, if set, faults the router's RPCs to the shards, as
	// adrouter -fault-rate does.
	Injector *faults.Injector
	// Wrap, if set, stands in front of a shard's handler on every launch of
	// it; tests inject failures there that no disturbance models.
	Wrap func(shard int, h http.Handler) http.Handler
	// Logf, if set, receives the supervision pass's events; a fleet stuck in
	// recovering cannot be diagnosed without the rejoin error they carry.
	Logf func(format string, args ...any)
}

// Fleet is the simulated fleet. It is a Deployment, a coordinator.Relauncher
// and the http.RoundTripper of every client inside it. Its methods may be
// called from several goroutines.
type Fleet struct {
	*Control
	Links
	Clock *obs.ManualClock

	cfg    FleetConfig
	client *marketing.Client

	mu     sync.Mutex
	shards []simShard
}

// simShard is one shard's process: no stack while it is dead.
type simShard struct {
	stack   *node.Stack
	handler http.Handler
	paused  bool
}

const routerHost = "router"

// NewFleet launches every shard and the router side over them.
func NewFleet(cfg FleetConfig) (_ *Fleet, err error) {
	f := &Fleet{Clock: obs.NewManualClock(), cfg: cfg, shards: make([]simShard, cfg.Shards)}
	f.Links = Links{Gate: faults.NewGate(), Hosts: make([]string, cfg.Shards)}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.Close())
		}
	}()
	ccfg := cfg.Coordinator
	for i := range f.shards {
		f.Hosts[i] = fmt.Sprintf("shard%d", i)
		if err := f.Relaunch(i); err != nil {
			return nil, err
		}
		ccfg.Backends = append(ccfg.Backends, f.ShardURL(i))
	}
	// The gate and the injector sit on the router's side of the router→shard
	// link, as in cmd/adrouter: a partition cuts probes and fan-out alike.
	ccfg.Transport = faults.NewTransport(f, cfg.Injector, f.Gate, f.Clock)
	ccfg.Clock = f.Clock
	ccfg.Relauncher, ccfg.Logf = f, cfg.Logf
	if f.Control, err = NewControl(ccfg); err != nil {
		return nil, err
	}
	if f.client, err = f.clientAt(f.URL()); err != nil {
		return nil, err
	}
	f.client.SetRetryPolicy(ClientRetry)
	return f, nil
}

// clientAt builds an API client on the fleet's network and clock.
func (f *Fleet) clientAt(url string) (*marketing.Client, error) {
	c, err := marketing.NewClient(url)
	if err != nil {
		return nil, err
	}
	c.SetTransport(f)
	c.SetClock(f.Clock)
	return c, nil
}

// Client is the advertiser's client, pointed at the router. ShardClient
// points straight at one shard, past the router and its gate, with default
// retries.
func (f *Fleet) Client() *marketing.Client { return f.client }

func (f *Fleet) ShardClient(shard int) (*marketing.Client, error) {
	return f.clientAt(f.ShardURL(shard))
}

// URL and ShardURL are the base URLs of the router and of one shard on the
// fleet's network, for a caller that builds its own requests and sends them
// through the fleet as its transport.
func (f *Fleet) URL() string               { return "http://" + routerHost }
func (f *Fleet) ShardURL(shard int) string { return "http://" + f.Hosts[shard] }

// Tick lets one workload tick of virtual time pass, the coordinator making
// its supervision passes through it.
func (f *Fleet) Tick(ctx context.Context) {
	for elapsed := time.Duration(0); elapsed < TickLen; elapsed += probeInterval {
		f.Coord.Step(ctx)
		f.Clock.Sleep(probeInterval)
	}
}

// RoundTrip delivers a request to the handler its host names. A dead shard
// refuses the connection. A paused one is silent for as long as its caller
// waits — the probe timeout for a supervision probe, the router's request
// timeout for anything else — and that wait is virtual.
func (f *Fleet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	var h http.Handler // stays nil for a dead shard, and for a host nobody has
	paused := false
	if i := slices.Index(f.Hosts, host); i >= 0 {
		f.mu.Lock()
		h, paused = f.shards[i].handler, f.shards[i].paused
		f.mu.Unlock()
	} else if host == routerHost {
		h = f.Router
	}
	in := req.WithContext(req.Context()) // a copy: a RoundTripper leaves the caller's request alone
	if in.Body == nil {
		in.Body = http.NoBody
	}
	defer in.Body.Close()
	switch {
	case h == nil:
		return nil, fmt.Errorf("chaos: dial %s: connection refused", host)
	case paused:
		silence := marketing.DefaultServerLimits().RequestTimeout
		if req.URL.Path == "/healthz" {
			silence = probeTimeout
		}
		f.Clock.Sleep(silence)
		return nil, fmt.Errorf("chaos: %s is stopped: no answer within %s", host, silence)
	}
	out := httptest.NewRecorder()
	h.ServeHTTP(out, in)
	return out.Result(), nil
}

// Kill is kill -9: the shard's store drops what it had not flushed, its
// sessions and idempotency cache go with the stack, and its host refuses
// connections until a relaunch. Killing a dead shard is a no-op.
func (f *Fleet) Kill(shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh := &f.shards[shard]; sh.stack != nil {
		sh.stack.Kill()
		*sh = simShard{}
	}
	return nil
}

// Pause is SIGSTOP and Resume SIGCONT; a dead shard has nothing to stop.
func (f *Fleet) Pause(shard int) error  { return f.setPaused(shard, true) }
func (f *Fleet) Resume(shard int) error { return f.setPaused(shard, false) }

func (f *Fleet) setPaused(shard int, on bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shards[shard].paused = on && f.shards[shard].stack != nil
	return nil
}

// Dir is a shard's WAL directory, "" for a fleet that serves from memory.
func (f *Fleet) Dir(shard int) string {
	if f.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(f.cfg.Dir, f.Hosts[shard])
}

// Relaunch replaces a shard's process: whatever was there is killed, and a
// new platform over the shared world, with the models its first build
// trained, recovers the account from the shard's WAL directory — same index,
// same host, same directory.
func (f *Fleet) Relaunch(shard int) error {
	if err := f.Kill(shard); err != nil {
		return err
	}
	plat, err := platform.New(f.cfg.Platform, f.cfg.World.Pop, f.cfg.World.Behavior)
	if err != nil {
		return err
	}
	scfg := f.cfg.Stack
	scfg.Store.Dir = f.Dir(shard)
	stack, err := node.NewStack(plat, scfg, io.Discard)
	if err != nil {
		return err
	}
	h := stack.Handler
	if f.cfg.Wrap != nil {
		h = f.cfg.Wrap(shard, h)
	}
	f.mu.Lock()
	f.shards[shard] = simShard{stack: stack, handler: h}
	f.mu.Unlock()
	return nil
}

// Close shuts every shard down gracefully — WAL flushed, final snapshot
// written — and leaves it dead; Relaunch brings one back.
func (f *Fleet) Close() error {
	f.mu.Lock()
	shards := f.shards
	f.shards = make([]simShard, len(shards))
	f.mu.Unlock()
	var errs []error
	for _, sh := range shards {
		if sh.stack != nil {
			errs = append(errs, sh.stack.Close())
		}
	}
	return errors.Join(errs...)
}
