// Package coordinator is the multi-process serving tier: a thin router that
// fronts N independent adplatform shard backends and makes them behave as
// one deterministic platform.
//
// Every backend holds the FULL world (the population is a deterministic
// function of the world seed) and the full CRUD account state (mutations fan
// out to all shards), but during a delivery day each backend auctions only
// its own slice of the audience — position mod N over the globally sorted
// eligible-user list, the same round-robin partition the in-process sharded
// engine uses. The coordinator runs the pacing controller and the tick
// barrier (platform.PacingController) over HTTP, so an N-shard coordinated
// day is byte-identical to the single-process RunDayWorkers(workers=N) run,
// and a 1-shard day reproduces the sequential oracle goldens.
//
// The coordinator holds no durable state of its own: backends recover
// independently through their own WAL/snapshot stores, and an interrupted
// delivery day is simply re-run — determinism makes the re-run
// indistinguishable from an uninterrupted one.
//
// The fleet degrades rather than dies. A per-shard health model (health.go),
// fed by liveness probes and live RPC outcomes, is the one record of
// admission: a shard is in service exactly when it is healthy or suspect,
// and one that crosses the down threshold is out of the fan-out the moment
// it is scored while CRUD keeps flowing on the shards in service. The model
// is deliberately conservative about what counts as failure: ANY HTTP answer
// — including injected 5xx, shed 429s and terminal validation errors —
// proves the process alive and resets the failure streak. Only transport
// silence (connection refused, timeout, dropped mid-body) advances a shard
// toward down, so a fleet under heavy fault injection at the network layer
// never flaps.
//
//	healthy ──failures──▶ suspect ──failures──▶ down
//	   ▲                     │ success            │ probe answers
//	   │                     ▼                    ▼
//	   └──────rejoin────── recovering ◀───────────┘
//	                         │ probe fails again
//	                         ▼
//	                        down
//
// Readmission is never automatic. The supervision pass (supervise.go)
// probes, relaunches through Config.Relauncher and rejoins: a recovering
// shard takes the replicated half of the account from an admitted peer
// (state transfer) and passes the state-digest gate before it is healthy
// again, which is also where MTTR is measured — down-detection to verified
// readmission. Shard INDEX is pinned for the life of the fleet: the delivery
// partition is position-mod-N in shard order, so a shard is resurrected
// under its own index, never renumbered — renumbering would silently
// re-partition every subsequent day.
package coordinator

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// Typed fleet-degradation errors. The router maps each onto 503 +
// Retry-After: the condition is real but expected to clear — callers retry.
var (
	// ErrShardDown marks an operation that cannot be served while a shard is
	// quarantined (delivery days, partitioned insights, an empty read pool).
	ErrShardDown = errors.New("coordinator: shard quarantined")
	// ErrDayExhausted marks a delivery day abandoned after the configured
	// attempt budget.
	ErrDayExhausted = errors.New("coordinator: delivery day attempts exhausted")
)

// Config shapes a Coordinator.
type Config struct {
	// Backends are the shard base URLs, in shard order. Shard i of the
	// delivery partition is Backends[i]; the order is part of the day's
	// identity (it fixes the commit order), so give every coordinator of
	// the same fleet the same order.
	Backends []string
	// MaxFanout bounds concurrent backend calls per scatter. 0 means
	// "all shards at once"; 1 calls the shards one after another in shard
	// order, which makes a scatter's effects on a shared clock reproducible.
	// New refuses a negative count or duration in this Config.
	MaxFanout int
	// DayAttempts is how many times a delivery day is re-run from scratch
	// after a shard failure before giving up. 0 defaults to 5.
	DayAttempts int
	// DayBackoff is the wait between day attempts, doubling per attempt up
	// to 8x (plus deterministic jitter derived from the day sequence, so
	// coordinated fleets don't retry in lockstep). 0 defaults to 2s.
	DayBackoff time.Duration
	// Transport, when set, replaces every backend client's HTTP transport —
	// the chaos/fault injection seam (faults.NewTransport).
	Transport http.RoundTripper
	// Clock injects time for the day-retry backoff, MTTR accounting and the
	// backend clients' retry backoff; nil is the system clock.
	Clock obs.Clock
	// Privacy is the insights privatization policy, applied to the MERGED
	// report after cross-shard summation (merge-then-privatize: per-shard
	// tallies are partition slices, so per-shard suppression would
	// over-suppress and per-shard noise would stack one draw per shard).
	// Shards behind this coordinator must serve raw insights; a
	// pre-privatized shard response is refused as a divergence.
	Privacy privacy.Config

	// Relauncher restarts a shard's process for the supervision pass (see
	// Step). Nil re-attaches only: an external process manager restarts
	// the shards, and the pass rejoins them when they answer.
	Relauncher Relauncher
	// ProbeInterval is the pause between supervision passes. 0 defaults
	// to 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe. 0 defaults to 2s.
	ProbeTimeout time.Duration
	// RelaunchAfter is how long a down shard may stay unreachable before
	// its process is relaunched (a dead process never answers; a paused or
	// partitioned one may come back on its own). 0 defaults to 3s.
	RelaunchAfter time.Duration
	// RelaunchBackoff is the minimum spacing between relaunches of one
	// shard. 0 defaults to 5s.
	RelaunchBackoff time.Duration
	// Logf, when set, receives supervision events worth an operator's
	// attention: quarantines, relaunches and rejoin failures, whose error
	// text is the only diagnosis of a fleet stuck in recovering.
	Logf func(format string, args ...any)
}

// Relauncher restarts a shard's process under its own index — real child
// processes (node.ShardProcs) or a simulated fleet. The supervision pass
// calls it for a shard that has stayed down past RelaunchAfter.
type Relauncher interface {
	Relaunch(shard int) error
}

// shardConn is one backend: its resilient API client, its metric label and
// the per-shard metric handles, resolved once so a backend call costs no
// name building and no registry lookup.
type shardConn struct {
	index  int
	url    string
	client *marketing.Client
	label  string

	latency          *obs.Histogram
	requests, errors *obs.Counter
}

// Coordinator fans CRUD out to every shard and runs coordinated delivery
// days. Mutations are serialized (one at a time across the fleet) so every
// backend applies them in the same order and allocates the same object IDs —
// cross-shard ID agreement is asserted on every response. Reads are
// concurrent.
type Coordinator struct {
	cfg    Config
	shards []*shardConn
	reg    *obs.Registry
	clock  obs.Clock
	// health is the per-shard health model and the one record of which
	// shards are in service (healthy or suspect).
	health *fleetHealth

	// mu serializes mutating fan-outs and delivery days. Determinism needs
	// identical mutation order on every backend; a thin coordinator buys it
	// with a lock rather than a log. Rejoins also run under mu — a shard is
	// readmitted only at a mutation boundary.
	mu     sync.Mutex
	daySeq atomic.Uint64

	keyBase string
	keySeq  atomic.Uint64

	// The supervision loop (supervise.go): when each shard was last
	// relaunched, and the loop's stop and done signals.
	lastRelaunch []time.Time
	stop, done   chan struct{}
}

// New builds a coordinator over the configured backends.
func New(cfg Config, reg *obs.Registry) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("coordinator: no backends configured")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"MaxFanout", int64(cfg.MaxFanout)}, {"DayAttempts", int64(cfg.DayAttempts)}, {"DayBackoff", int64(cfg.DayBackoff)},
		{"ProbeInterval", int64(cfg.ProbeInterval)}, {"ProbeTimeout", int64(cfg.ProbeTimeout)},
		{"RelaunchAfter", int64(cfg.RelaunchAfter)}, {"RelaunchBackoff", int64(cfg.RelaunchBackoff)}} {
		if f.v < 0 {
			return nil, fmt.Errorf("coordinator: %s is negative (0 takes its default)", f.name)
		}
	}
	cfg.DayAttempts = cmp.Or(cfg.DayAttempts, 5)
	cfg.DayBackoff = cmp.Or(cfg.DayBackoff, 2*time.Second)
	cfg.ProbeInterval = cmp.Or(cfg.ProbeInterval, 500*time.Millisecond)
	cfg.ProbeTimeout = cmp.Or(cfg.ProbeTimeout, 2*time.Second)
	cfg.RelaunchAfter = cmp.Or(cfg.RelaunchAfter, 3*time.Second)
	cfg.RelaunchBackoff = cmp.Or(cfg.RelaunchBackoff, 5*time.Second)
	if err := cfg.Privacy.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.SystemClock
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		clock:   clock,
		keyBase: fmt.Sprintf("fk-%08x", rand.Uint32()), //adlint:allow detrand (a restarted router must mint keys no earlier router used)
	}
	for i, u := range cfg.Backends {
		cl, err := marketing.NewClient(u)
		if err != nil {
			return nil, fmt.Errorf("coordinator: backend %d: %w", i, err)
		}
		if cfg.Transport != nil {
			cl.SetTransport(cfg.Transport)
		}
		cl.SetMetrics(reg)
		cl.SetClock(clock)
		label := fmt.Sprintf("shard%d", i)
		c.shards = append(c.shards, &shardConn{
			index: i, url: u, client: cl, label: label,
			latency:  reg.Histogram(MetricShardLatency + "|" + label),
			requests: reg.Counter(MetricShardRequests + "|" + label),
			errors:   reg.Counter(MetricShardErrors + "|" + label),
		})
	}
	c.health = newFleetHealth(c.shards, reg, clock)
	c.lastRelaunch = make([]time.Time, len(c.shards))
	return c, nil
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Backends reports the backend URLs in shard order.
func (c *Coordinator) Backends() []string {
	return append([]string(nil), c.cfg.Backends...)
}

// States reports every shard's health state in shard order. The health model
// is the fleet's one record of admission: a shard is in service exactly when
// its state is.
func (c *Coordinator) States() []State { return c.health.states() }

// SetRetryPolicy applies one retry policy to every backend client.
func (c *Coordinator) SetRetryPolicy(p marketing.RetryPolicy) {
	for _, sc := range c.shards {
		sc.client.SetRetryPolicy(p)
	}
}

// mintFleetKey makes a fleet-wide idempotency key for a mutation that
// arrived without one, so every shard executes the mutation under the same
// key.
func (c *Coordinator) mintFleetKey() string {
	return fmt.Sprintf("%s-%d", c.keyBase, c.keySeq.Add(1))
}

// --- admission -------------------------------------------------------------

// serving lists the shards in service, from one snapshot of the health
// model. A shard out of it takes what it missed in its rejoin's state
// transfer.
func (c *Coordinator) serving() []*shardConn {
	var in []*shardConn
	for i, st := range c.health.states() {
		if st.InService() {
			in = append(in, c.shards[i])
		}
	}
	return in
}

// rejoinLocked is the readmission protocol for one quarantined shard that
// has recovered from its own WAL, run under the fleet mutex (so no mutation
// or day moves while state converges):
//
//  1. handshake — the shard answers GET /v1/shard/status, its world
//     fingerprint matches an admitted reference, and no day session is
//     still open on it;
//  2. state transfer — the reference's replicated half (GET
//     /v1/shard/replicated) is relayed undecoded to the shard, which
//     installs it over its own delivery half and snapshots its store (PUT);
//  3. digest gate — the shard's state digest must equal the reference's,
//     byte for byte. After a partial commit it does not: each shard's
//     COMPLETED bits are its own, and Deliver's replay converges them;
//  4. admit — MarkHealthy puts it back into the CRUD fan-out and delivery
//     pool; MTTR is observed.
//
// With no shard in service left (whole-fleet outage), the shard that left
// service last is readmitted on its own WAL alone — there is nothing to take
// state from or digest against — and counted in router.rejoin_unverified;
// every other shard missed the mutations acked after it went out, so it
// waits for that one and takes its state from it.
func (c *Coordinator) rejoinLocked(ctx context.Context, shard int) error {
	if c.health.state(shard).InService() {
		return nil
	}
	sc := c.shards[shard]
	fail := func(err error) error {
		c.reg.Counter(MetricRejoinFailures).Inc()
		return err
	}
	st, err := sc.client.ShardStatus(ctx)
	if err != nil {
		return fail(fmt.Errorf("coordinator: rejoin handshake on %s: %w", sc.label, err))
	}
	if st.SessionActive {
		return fail(fmt.Errorf("coordinator: rejoin %s: a day session is still open mid-recovery", sc.label))
	}
	switch ref, ok := c.health.reference(); {
	case ok:
		if err := transfer(ctx, sc, c.shards[ref], st.NumUsers); err != nil {
			return fail(err)
		}
	case shard != ref:
		return fail(fmt.Errorf("coordinator: rejoin %s: whole fleet out, shard%d was quarantined last and rejoins first", sc.label, ref))
	default:
		c.reg.Counter(MetricRejoinUnverified).Inc()
	}
	c.health.markHealthy(shard)
	c.reg.Counter(MetricRejoins).Inc()
	return nil
}

// transfer is the rejoin's work against the reference: the world
// fingerprint half of the handshake, the state transfer and the digest gate.
func transfer(ctx context.Context, sc, ref *shardConn, numUsers int) error {
	refSt, err := ref.client.ShardStatus(ctx)
	if err != nil {
		return fmt.Errorf("coordinator: rejoin reference handshake on %s: %w", ref.label, err)
	}
	if numUsers != refSt.NumUsers {
		return divergence("rejoin world fingerprint", sc,
			fmt.Sprintf("num_users=%d", numUsers), fmt.Sprintf("num_users=%d", refSt.NumUsers))
	}
	raw, err := ref.client.Replicated(ctx)
	if err != nil {
		return fmt.Errorf("coordinator: rejoin state read on %s: %w", ref.label, err)
	}
	if err := sc.client.InstallReplicated(ctx, raw); err != nil {
		return fmt.Errorf("coordinator: rejoin state install on %s: %w", sc.label, err)
	}
	after, err := sc.client.ShardStatus(ctx)
	if err != nil {
		return fmt.Errorf("coordinator: rejoin digest read on %s: %w", sc.label, err)
	}
	// The reference's status digest hashes exactly the bytes relayed.
	sum := sha256.Sum256(raw)
	if want := hex.EncodeToString(sum[:]); after.StateDigest != want {
		return divergence("rejoin state digest", sc, after.StateDigest, want)
	}
	return nil
}

// --- scatter ---------------------------------------------------------------

// scatterEach runs fn against the given shards with bounded concurrency and
// waits for all of them, recording per-shard request/error counts and
// latency, and feeding each outcome to the health model. The returned slice
// is indexed by shard index (full fleet width); untargeted shards stay nil.
func (c *Coordinator) scatterEach(ctx context.Context, op string, targets []*shardConn, fn func(ctx context.Context, sc *shardConn) error) []error {
	limit := c.cfg.MaxFanout
	if limit <= 0 || limit > len(targets) {
		limit = len(targets)
	}
	errs := make([]error, len(c.shards))
	call := func(sc *shardConn) {
		start := c.clock.Now()
		err := fn(ctx, sc)
		sc.latency.Observe(c.clock.Now().Sub(start))
		sc.requests.Inc()
		c.observeOutcome(sc.index, err)
		if err != nil {
			sc.errors.Inc()
			errs[sc.index] = fmt.Errorf("coordinator: %s on %s: %w", op, sc.label, err)
		}
	}
	if limit == 1 {
		for _, sc := range targets {
			call(sc)
		}
		return errs
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, sc := range targets {
		wg.Add(1)
		go func(sc *shardConn) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			call(sc)
		}(sc)
	}
	wg.Wait()
	return errs
}

// observeOutcome feeds one RPC outcome into the health model: an HTTP
// answer of any status (an APIError) proves the process alive, anything
// else is transport silence (see the package documentation). A caller
// cancellation says nothing about the shard and is not scored.
func (c *Coordinator) observeOutcome(shard int, err error) {
	if err == nil {
		c.health.observe(shard, true)
		return
	}
	if errors.Is(err, context.Canceled) {
		return
	}
	var apiErr *marketing.APIError
	c.health.observe(shard, errors.As(err, &apiErr))
}

// scatter runs fn against the given shards and returns the first error in
// shard order (deterministic even when several shards fail at once).
func (c *Coordinator) scatter(ctx context.Context, op string, targets []*shardConn, fn func(ctx context.Context, sc *shardConn) error) error {
	errs := c.scatterEach(ctx, op, targets, fn)
	for _, sc := range targets {
		if errs[sc.index] != nil {
			return errs[sc.index]
		}
	}
	return nil
}

// --- replicated CRUD -------------------------------------------------------

// Replicated CRUD mutations; the kind labels errors.
const (
	kindAudience = "create audience"
	kindCampaign = "create campaign"
	kindAd       = "create ad"
	kindAppeal   = "appeal ad"
)

// mutation is one replicated CRUD request exactly as the router received it.
// The coordinator never decodes body: the shards parse and validate it, and
// answer a malformed one with their own 400.
type mutation struct {
	kind string
	// key is the caller's idempotency key ("" mints a fleet key).
	key string
	// path is the escaped request path, body the request bytes.
	path string
	body []byte
}

// outcome is what every shard must answer alike for one mutation: the
// fields of the small typed responses (CreateAudienceResponse,
// CreateCampaignResponse, AdResponse) taken together. The review RNG is
// seeded identically on every backend, so an ad's review status must agree
// along with its ID.
type outcome struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	MatchedSize int    `json:"matched_size"`
}

// post relays the mutation's bytes to one shard under the fleet key.
func (m *mutation) post(ctx context.Context, sc *shardConn) (payload []byte, got outcome, err error) {
	payload, err = sc.client.Post(marketing.WithIdempotencyKey(ctx, m.key), m.path, m.body)
	if err != nil {
		return nil, outcome{}, err
	}
	if err := json.Unmarshal(payload, &got); err != nil {
		return nil, outcome{}, fmt.Errorf("decoding response: %w", err)
	}
	return payload, got, nil
}

// mutate is the replicated-CRUD engine: relay the request bytes to every
// shard in service and assert the shards answered alike. It returns the
// reference shard's response payload for the router to pass on. A shard
// whose fan-out call fails AND that the call scored out of service is left
// behind instead of failing the fleet; whether it applied the mutation
// before it went silent does not matter, since its rejoin replaces its
// replicated state whole. Failures on shards still in service fail the
// mutation (the caller's idempotent retry converges). A shard answering
// unlike the reference fails it as a divergence and is marked down: its
// rejoin replaces its replicated half.
func (c *Coordinator) mutate(ctx context.Context, m mutation) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.key == "" {
		m.key = c.mintFleetKey()
	}
	in := c.serving()
	if len(in) == 0 {
		return nil, fmt.Errorf("coordinator: %s: no admitted shards: %w", m.kind, ErrShardDown)
	}

	payloads := make([][]byte, len(c.shards))
	got := make([]outcome, len(c.shards))
	errs := c.scatterEach(ctx, m.kind, in, func(ctx context.Context, sc *shardConn) (err error) {
		payloads[sc.index], got[sc.index], err = m.post(ctx, sc)
		return err
	})
	var firstErr error
	for _, sc := range in {
		err := errs[sc.index]
		if err == nil || !c.health.state(sc.index).InService() {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var ref *shardConn
	var diverged error
	for _, sc := range in {
		switch {
		case payloads[sc.index] == nil: // scored out mid-flight
		case ref == nil:
			ref = sc
		case got[sc.index] != got[ref.index]:
			c.health.markDown(sc.index)
			diverged = divergence(m.kind, sc, fmt.Sprintf("%+v", got[sc.index]), fmt.Sprintf("%+v", got[ref.index]))
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("coordinator: %s: every shard went down mid-mutation: %w", m.kind, ErrShardDown)
	}
	if diverged != nil {
		return nil, diverged
	}
	return payloads[ref.index], nil
}

// GetAd reads an ad's status from the first shard in service that answers,
// in shard order (reads need no quorum: shards are replicas of the CRUD
// state).
func (c *Coordinator) GetAd(ctx context.Context, adID string) (*marketing.AdResponse, error) {
	in := c.serving()
	if len(in) == 0 {
		return nil, fmt.Errorf("coordinator: get ad %s: no admitted shards: %w", adID, ErrShardDown)
	}
	var lastErr error
	for _, sc := range in {
		resp, err := sc.client.GetAd(ctx, adID)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !marketing.Retryable(err) {
			break // a terminal answer (404, validation) is the answer
		}
	}
	return nil, lastErr
}

// Insights fans the insights read out to every shard and merges: counts sum
// (shards own disjoint users, so impressions, reach, clicks, and every
// breakdown cell add), while SpendCents — written identically to all shards
// at day finish — must agree to the bit and passes through.
//
// Unlike the replicated CRUD state, delivery counts are PARTITIONED: each
// shard's slice exists nowhere else, so insights cannot be served while any
// shard is quarantined — the merge would silently under-count. Callers get
// a typed retryable error until the fleet heals.
func (c *Coordinator) Insights(ctx context.Context, adID string, dims []string) (*marketing.InsightsResponse, error) {
	if q := c.health.out(); len(q) > 0 {
		return nil, fmt.Errorf("coordinator: insights for %s need the full fleet, shards %v quarantined: %w", adID, q, ErrShardDown)
	}
	out := make([]*marketing.InsightsResponse, len(c.shards))
	err := c.scatter(ctx, "insights", c.shards, func(ctx context.Context, sc *shardConn) error {
		var resp *marketing.InsightsResponse
		var err error
		if len(dims) == 0 {
			resp, err = sc.client.Insights(ctx, adID)
		} else {
			resp, err = sc.client.InsightsBreakdown(ctx, adID, dims...)
		}
		if err != nil {
			return err
		}
		out[sc.index] = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := mergeInsights(c.shards, out)
	if err != nil {
		return nil, err
	}
	// Merge-then-privatize: suppression thresholds and noise apply to the
	// fleet-wide report, never to partition slices. This is the only point
	// in the fleet where the logical report exists, so it is the only point
	// where privatizing it matches the single-process engine byte for byte.
	return marketing.PrivatizeInsights(c.cfg.Privacy, merged), nil
}

// mergeInsights folds per-shard delivery reports into the fleet-wide one.
// Shard responses must be raw: a pre-privatized part means a misconfigured
// shard (suppression on a partition slice, noise stacked per shard) and is
// reported as a divergence rather than silently merged.
func mergeInsights(shards []*shardConn, parts []*marketing.InsightsResponse) (*marketing.InsightsResponse, error) {
	m := &marketing.InsightsResponse{AdID: parts[0].AdID, SpendCents: parts[0].SpendCents}
	cells := map[marketing.BreakdownRow]int{}
	for i, part := range parts {
		if part.Privacy != nil {
			return nil, divergence("insights privatized by shard", shards[i],
				part.Privacy.Level, "raw")
		}
		if part.SpendCents != m.SpendCents {
			return nil, divergence("insights spend", shards[i],
				fmt.Sprintf("%v", part.SpendCents), fmt.Sprintf("%v", m.SpendCents))
		}
		m.Impressions += part.Impressions
		m.Reach += part.Reach
		m.Clicks += part.Clicks
		for _, row := range part.Breakdown {
			key := row
			key.Impressions = 0
			cells[key] += row.Impressions
		}
		if len(part.Hourly) > 0 {
			if m.Hourly == nil {
				m.Hourly = make([]int, len(part.Hourly))
			}
			if len(part.Hourly) != len(m.Hourly) {
				return nil, divergence("insights hourly length", shards[i],
					fmt.Sprintf("%d", len(part.Hourly)), fmt.Sprintf("%d", len(m.Hourly)))
			}
			for t, v := range part.Hourly {
				m.Hourly[t] += v
			}
		}
	}
	m.Breakdown = marketing.BreakdownRows(cells)
	return m, nil
}

// Inventory fans the object census out to every shard in service and
// asserts they agree — the cheap convergence check the multi-process smoke
// test leans on. (CRUD state is replicated, so any subset in service answers
// for the fleet; a quarantined shard catches up when it rejoins.)
func (c *Coordinator) Inventory(ctx context.Context) (*platform.Inventory, error) {
	in := c.serving()
	if len(in) == 0 {
		return nil, fmt.Errorf("coordinator: inventory: no admitted shards: %w", ErrShardDown)
	}
	out := make([]*platform.Inventory, len(c.shards))
	err := c.scatter(ctx, "inventory", in, func(ctx context.Context, sc *shardConn) error {
		inv, err := sc.client.Inventory(ctx)
		if err != nil {
			return err
		}
		out[sc.index] = inv
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ref *platform.Inventory
	for _, sc := range in {
		inv := out[sc.index]
		if ref == nil {
			ref = inv
			continue
		}
		if inv.Audiences != ref.Audiences || inv.Campaigns != ref.Campaigns || inv.Ads != ref.Ads ||
			inv.TargetedUsers != ref.TargetedUsers || inv.ReviewDraws != ref.ReviewDraws ||
			strings.Join(inv.CampaignNames, ",") != strings.Join(ref.CampaignNames, ",") {
			return nil, divergence("inventory", sc, fmt.Sprintf("%+v", *inv), fmt.Sprintf("%+v", *ref))
		}
	}
	return ref, nil
}

// divergence builds the error for shards that disagree on what must be
// replicated state (a backend executed a mutation the others did not, or runs
// other code or world seed). mutate marks down a shard that answered unlike
// the reference, for its rejoin to repair; elsewhere it is only reported.
func divergence(what string, sc *shardConn, got, want string) error {
	return fmt.Errorf("coordinator: %s diverged on %s (%s): got %s, want %s (reference)", what, sc.label, sc.url, got, want)
}
