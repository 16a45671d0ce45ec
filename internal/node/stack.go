package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
)

// StackConfig configures the serving stack around one platform.
type StackConfig struct {
	ShedCap int            // max in-flight requests before shedding; 0 disables
	Privacy privacy.Config // single-process privatization; a fleet sets it on the router instead
	Faults  faults.Config  // Rate 0 disables injection
	Store   store.Options  // empty Dir serves from memory only
}

// Stack is an assembled marketing API: the server, its outermost handler and
// the durable store behind it, if any.
type Stack struct {
	Server  *marketing.Server
	Handler http.Handler
	store   *store.Store
	out     io.Writer
}

// NewStack assembles the marketing API over plat and announces what it armed
// on out. The order is the contract: one registry shared by the delivery
// phases, the WAL, the HTTP middleware and the fault counters, so a single
// GET /metrics shows all four; the account recovered from disk before the
// server that acks against it exists; fault injection outermost, so an
// injected fault costs the server nothing.
func NewStack(plat *platform.Platform, cfg StackConfig, out io.Writer) (*Stack, error) {
	reg := obs.NewRegistry()
	plat.SetObserver(reg, nil)
	limits := marketing.DefaultServerLimits()
	limits.MaxInFlight = cfg.ShedCap
	opts := []marketing.ServerOption{marketing.WithLimits(limits), marketing.WithRegistry(reg), marketing.WithPrivacy(cfg.Privacy)}
	if cfg.Privacy.Enabled() {
		fmt.Fprintf(out, "insights privacy armed: level %s, k=%d, epsilon=%v, seed %d\n",
			cfg.Privacy.Level, cfg.Privacy.K, cfg.Privacy.Epsilon, cfg.Privacy.Seed)
	}
	var inj *faults.Injector
	if cfg.Faults.Rate > 0 {
		var err error
		if inj, err = faults.New(cfg.Faults, reg); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "injecting faults: rate %.2f, seed %d, kinds %v\n", cfg.Faults.Rate, cfg.Faults.Seed, cfg.Faults.Kinds)
	}
	s := &Stack{out: out}
	if cfg.Store.Dir != "" {
		// The world is rebuilt from its seed; only the account lives on disk.
		cfg.Store.Metrics = reg
		st, err := store.Open(cfg.Store)
		if err != nil {
			return nil, err
		}
		info, err := st.Recover(plat)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "durable store at %s (fsync=%s): %s\n", cfg.Store.Dir, cfg.Store.Fsync, info)
		opts = append(opts, marketing.WithPersister(st))
		s.store = st
	}
	var err error
	if s.Server, err = marketing.NewServer(plat, opts...); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	s.Handler = s.Server.Handler()
	if inj != nil {
		s.Handler = inj.Middleware(s.Handler)
	}
	return s, nil
}

// Close flushes the WAL tail and writes the shutdown snapshot, so the next
// boot replays nothing. Call it once in-flight requests are drained or cut.
func (s *Stack) Close() error {
	if s.store == nil {
		return nil
	}
	rp, err := s.store.Close()
	if err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	fmt.Fprintf(s.out, "store closed: restart recovers from snapshot seq %d + %d WAL records\n", rp.SnapshotSeq, rp.TailRecords)
	return nil
}

// Kill drops the store as a SIGKILL of the process would: records buffered
// but not yet flushed are lost, nothing is snapshotted, and whatever the
// stack still answers fails its durability barrier. The simulated fleet
// (internal/chaos) kills a shard this way.
func (s *Stack) Kill() {
	if s.store != nil {
		s.store.Kill()
	}
}

// WaitHealthy polls every backend's liveness endpoint, one Client.Healthz
// attempt per probe, until all answer 2xx or the budget runs out, so a router
// can start before (or while) its fleet does — convenient for process
// supervisors that start everything at once.
func WaitHealthy(backends []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, b := range backends {
		client, err := marketing.NewClient(b)
		if err != nil {
			return err
		}
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := client.Healthz(ctx)
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("backend %s not healthy within %s", b, budget)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	return nil
}

// Serve answers on ln until the listener fails or SIGINT/SIGTERM arrives,
// then drains in-flight requests for at most drainTimeout and cuts the rest.
// start, if not nil, is called before serving with a context the signal
// cancels, for work that must stop when draining begins.
func Serve(ln net.Listener, handler http.Handler, drainTimeout time.Duration, start func(context.Context)) error {
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if start != nil {
		start(ctx)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process instead of waiting out the drain
	fmt.Printf("signal received, draining in-flight requests (budget %s)...\n", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var drainErr error
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Most likely a delivery day still in flight. A day in progress lives
		// in memory only, so cutting it loses nothing durable.
		drainErr = fmt.Errorf("drain timed out after %s (in-flight requests cut): %w", drainTimeout, err)
		_ = httpSrv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		drainErr = errors.Join(drainErr, err)
	}
	return drainErr
}
