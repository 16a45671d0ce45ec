package coordinator

// The router's HTTP surface: the same advertiser-facing API the marketing
// server exposes, plus operator routes (topology, inventory, metrics), so
// audit tooling points at a router exactly as it would at a single backend.
// Mutating routes carry the same resilience chain as the marketing server —
// instrumentation, load shedding, idempotency replay, panic recovery,
// timeouts, body limits — reusing the obs middleware and the marketing
// package's exported idempotency cache.

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// TopologyResponse describes the fleet behind the router, including each
// shard's health state and whether it is currently admitted to the fan-out.
type TopologyResponse struct {
	Shards   int      `json:"shards"`
	Backends []string `json:"backends"`
	Health   []string `json:"health,omitempty"`
	Admitted []bool   `json:"admitted,omitempty"`
}

// deliverTimeout caps a coordinated delivery day's wall time, separately
// from the ordinary request timeout: a day is hundreds of fan-out RPCs plus
// potential whole-day restarts after a shard crash.
const deliverTimeout = 15 * time.Minute

// Router serves the advertiser API over a Coordinator.
type Router struct {
	c      *Coordinator
	reg    *obs.Registry
	limits marketing.ServerLimits
	idem   *marketing.IdempotencyCache
}

// NewRouter wraps a coordinator in the HTTP API, instrumenting into the
// given registry (nil for a private one).
func NewRouter(c *Coordinator, reg *obs.Registry) (*Router, error) {
	if c == nil {
		return nil, fmt.Errorf("coordinator: nil coordinator")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Router{c: c, reg: reg, limits: marketing.DefaultServerLimits(), idem: marketing.NewIdempotencyCache()}, nil
}

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Handler returns the routing table with the full resilience chain, mirror
// of the marketing server's (see marketing.Server.Handler for the ordering
// rationale).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, timeout time.Duration, fn http.HandlerFunc) {
		var h http.Handler = fn
		h = obs.BodyLimit(rt.limits.MaxBodyBytes, h)
		h = obs.Timeout(rt.reg, timeout, h)
		h = obs.Recover(rt.reg, h)
		if strings.HasPrefix(pattern, "POST ") {
			h = rt.idem.Middleware(rt.reg, h)
		}
		h = obs.LoadShed(rt.reg, rt.limits.MaxInFlight, h)
		mux.Handle(pattern, obs.Instrument(rt.reg, pattern, h))
	}
	handle("POST /v1/customaudiences", rt.limits.RequestTimeout, rt.relay(kindAudience, http.StatusCreated))
	handle("POST /v1/campaigns", rt.limits.RequestTimeout, rt.relay(kindCampaign, http.StatusCreated))
	handle("POST /v1/ads", rt.limits.RequestTimeout, rt.relay(kindAd, http.StatusCreated))
	handle("POST /v1/ads/{id}/appeal", rt.limits.RequestTimeout, rt.relay(kindAppeal, http.StatusOK))
	handle("GET /v1/ads/{id}", rt.limits.RequestTimeout, rt.handleGetAd)
	handle("POST /v1/deliver", deliverTimeout, rt.handleDeliver)
	handle("GET /v1/insights", rt.limits.RequestTimeout, rt.handleInsights)
	mux.Handle("GET /metrics", obs.MetricsHandler(rt.reg))
	mux.Handle("GET /healthz", obs.HealthzHandler(rt.reg))
	mux.HandleFunc("GET /v1/topology", rt.handleTopology)
	mux.HandleFunc("GET /debug/inventory", rt.handleInventory)
	return mux
}

// degradedRetryAfter is the Retry-After hint for fleet-degradation 503s:
// roughly one supervisor probe/rejoin cycle, so a well-behaved client's next
// idempotent retry lands after the fleet had a chance to heal.
const degradedRetryAfter = "2"

// writeRouterError maps a coordinator error onto the wire. Backend API
// answers pass through with their own status (the router adds nothing to a
// 400/404/409); fleet-degradation errors — a quarantined shard, a full
// catch-up journal, an exhausted day budget — are 503 + Retry-After, the
// "try again after the fleet heals" contract idempotent clients compose
// with; everything else — transport failures, open breakers, divergence —
// is the router's own 502.
func writeRouterError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrShardDown) || errors.Is(err, ErrJournalFull) || errors.Is(err, ErrDayExhausted) {
		w.Header().Set("Retry-After", degradedRetryAfter)
		marketing.WriteJSON(w, http.StatusServiceUnavailable, marketing.ErrorResponse{Error: err.Error()})
		return
	}
	code := http.StatusBadGateway
	var apiErr *marketing.APIError
	if errors.As(err, &apiErr) {
		code = apiErr.StatusCode
	}
	marketing.WriteJSON(w, code, marketing.ErrorResponse{Error: err.Error()})
}

// relay serves one replicated CRUD route. The router reads the body once —
// bounded, so an oversized one gets its 413 here — and never decodes it: the
// same bytes go to every admitted shard under the caller's idempotency key,
// the shards validate them (their 400 passes through writeRouterError), and
// the agreed shard answer is passed back under the route's success status.
func (rt *Router) relay(kind string, success int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := marketing.ReadBody(w, r)
		if !ok {
			return
		}
		payload, err := rt.c.mutate(r.Context(), mutation{
			kind: kind,
			key:  r.Header.Get(marketing.IdempotencyKeyHeader),
			path: r.URL.EscapedPath(),
			body: body,
		})
		if err != nil {
			writeRouterError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(success)
		// A failed write means the caller is gone; its retry replays the
		// answer from the idempotency cache.
		_, _ = w.Write(payload)
	}
}

func (rt *Router) handleGetAd(w http.ResponseWriter, r *http.Request) {
	resp, err := rt.c.GetAd(r.Context(), r.PathValue("id"))
	if err != nil {
		writeRouterError(w, err)
		return
	}
	marketing.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleDeliver(w http.ResponseWriter, r *http.Request) {
	req, ok := marketing.Decode[marketing.DeliverRequest](w, r.Body)
	if !ok {
		return
	}
	// The fleet topology fixes the shard count; a mismatched explicit
	// worker count would silently deliver a different (equally valid but
	// different-stream) day than the caller expects.
	if req.Workers != 0 && req.Workers != rt.c.Shards() {
		marketing.WriteJSON(w, http.StatusBadRequest, marketing.ErrorResponse{
			Error: fmt.Sprintf("coordinator: workers=%d conflicts with the %d-shard topology (omit workers or match it)", req.Workers, rt.c.Shards()),
		})
		return
	}
	if err := rt.c.Deliver(r.Context(), req.AdIDs, req.Seed); err != nil {
		writeRouterError(w, err)
		return
	}
	marketing.WriteJSON(w, http.StatusOK, marketing.DeliverResponse{Delivered: len(req.AdIDs)})
}

func (rt *Router) handleInsights(w http.ResponseWriter, r *http.Request) {
	adID := r.URL.Query().Get("ad_id")
	if adID == "" {
		marketing.WriteJSON(w, http.StatusBadRequest, marketing.ErrorResponse{Error: "coordinator: ad_id query parameter required"})
		return
	}
	var dims []string
	if raw := r.URL.Query().Get("breakdown"); raw != "" {
		dims = strings.Split(raw, ",")
	}
	resp, err := rt.c.Insights(r.Context(), adID, dims)
	if err != nil {
		writeRouterError(w, err)
		return
	}
	marketing.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleTopology(w http.ResponseWriter, _ *http.Request) {
	states := rt.c.Health().States()
	health := make([]string, len(states))
	admitted := make([]bool, len(states))
	for i, st := range states {
		health[i] = st.String()
		admitted[i] = rt.c.isAdmitted(i)
	}
	marketing.WriteJSON(w, http.StatusOK, TopologyResponse{
		Shards:   rt.c.Shards(),
		Backends: rt.c.Backends(),
		Health:   health,
		Admitted: admitted,
	})
}

func (rt *Router) handleInventory(w http.ResponseWriter, r *http.Request) {
	inv, err := rt.c.Inventory(r.Context())
	if err != nil {
		writeRouterError(w, err)
		return
	}
	marketing.WriteJSON(w, http.StatusOK, inv)
}
