package marketing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// ServerLimits bound each request's claim on the server: wall time, body
// size, and concurrency. They are the server-side half of graceful
// degradation — past the in-flight cap the server sheds with 429 instead of
// queueing into collapse.
type ServerLimits struct {
	// RequestTimeout caps one request's wall time (503 past it). Zero
	// disables the cap.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (413 past it). Zero disables.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests (429 past it). Zero
	// disables shedding.
	MaxInFlight int
}

// DefaultServerLimits are generous for the in-process simulator: wide
// enough that no healthy workload hits them, tight enough that a stuck or
// abusive one is contained.
func DefaultServerLimits() ServerLimits {
	return ServerLimits{
		RequestTimeout: 60 * time.Second,
		MaxBodyBytes:   16 << 20,
		MaxInFlight:    256,
	}
}

// ServerOption tunes a Server at construction.
type ServerOption func(*Server)

// WithLimits replaces the default request limits.
func WithLimits(l ServerLimits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// Persister is the durability barrier a state store provides: Barrier
// returns once every platform mutation applied so far is persistent.
type Persister interface {
	Barrier(ctx context.Context) error
}

// WithPersister makes every mutating endpoint wait for durability before
// acking: the response is written only after the mutation's WAL record is
// flushed (persist-before-respond). A failed barrier turns into a 503,
// which the idempotency cache deliberately does not memoize, so the
// client's retry re-executes once the store recovers.
func WithPersister(p Persister) ServerOption {
	return func(s *Server) { s.persist = p }
}

// WithRegistry shares a metrics registry with the server instead of the
// private default, so store and HTTP metrics land in one GET /metrics.
func WithRegistry(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// WithPrivacy sets the response-privatization policy for GET /v1/insights.
// The default (and the zero Config) is privacy off: raw reports, wire bytes
// identical to the pre-privacy API. In a sharded fleet this option belongs
// on the coordinator, not on shard servers — see the merge-then-privatize
// rule in package privacy.
func WithPrivacy(cfg privacy.Config) ServerOption {
	return func(s *Server) { s.privacy.Store(&cfg) }
}

// Server wraps a platform in the HTTP API. It is safe for concurrent use:
// the platform itself serializes mutating calls behind its account lock
// (as a real API would serialize per-account writes) while read endpoints
// proceed concurrently, so the server adds no locking of its own. Every
// endpoint is instrumented into the server's metrics registry, exposed at
// GET /metrics with a liveness probe at GET /healthz.
//
// The handler chain hardens every endpoint: in-flight load shedding,
// idempotency-key deduplication on mutating routes, panic recovery,
// per-request timeouts, and request-body limits, each counted in the
// registry.
type Server struct {
	p       *platform.Platform
	reg     *obs.Registry
	limits  ServerLimits
	idem    *idemCache
	persist Persister
	// privacy holds the insights privatization policy. Atomic so the audit
	// sweep can switch levels on a live server between (read-only) insights
	// queries without a restart; nil and the zero Config both mean off.
	privacy atomic.Pointer[privacy.Config]
}

// NewServer wraps a platform.
func NewServer(p *platform.Platform, opts ...ServerOption) (*Server, error) {
	if p == nil {
		return nil, fmt.Errorf("marketing: nil platform")
	}
	s := &Server{p: p, reg: obs.NewRegistry(), limits: DefaultServerLimits(), idem: newIdemCache()}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Metrics returns the server's metrics registry (the data behind
// GET /metrics), for in-process consumers like shutdown logging.
func (s *Server) Metrics() *obs.Registry {
	return s.reg
}

// SetPrivacy replaces the insights privatization policy at runtime.
// Privatization is response-time and stateless, so switching levels needs no
// restart and touches no delivery state — the audit sweep leans on this to
// re-read the same campaign's insights at several privacy levels.
func (s *Server) SetPrivacy(cfg privacy.Config) {
	s.privacy.Store(&cfg)
}

// privacyConfig returns the active policy (zero Config when unset).
func (s *Server) privacyConfig() privacy.Config {
	if p := s.privacy.Load(); p != nil {
		return *p
	}
	return privacy.Config{}
}

// Handler returns the API routing table with per-endpoint instrumentation
// and the resilience chain. Outside-in per route: instrumentation → load
// shedding → idempotency (mutating routes only) → panic recovery → request
// timeout → body limit → handler. Shedding sits outside idempotency so a
// shed request consumes nothing; recovery sits outside the timeout because
// http.TimeoutHandler re-panics handler panics in the serving goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, fn http.HandlerFunc) {
		var h http.Handler = fn
		h = obs.BodyLimit(s.limits.MaxBodyBytes, h)
		h = obs.Timeout(s.reg, s.limits.RequestTimeout, h)
		h = obs.Recover(s.reg, h)
		if strings.HasPrefix(pattern, "POST ") {
			h = s.idem.middleware(s.reg, h)
		}
		h = obs.LoadShed(s.reg, s.limits.MaxInFlight, h)
		mux.Handle(pattern, obs.Instrument(s.reg, pattern, h))
	}
	handle("POST /v1/customaudiences", s.handleCreateAudience)
	handle("POST /v1/campaigns", s.handleCreateCampaign)
	handle("POST /v1/ads", s.handleCreateAd)
	handle("POST /v1/ads/{id}/appeal", s.handleAppeal)
	handle("GET /v1/ads/{id}", s.handleGetAd)
	handle("POST /v1/deliver", s.handleDeliver)
	handle("GET /v1/insights", s.handleInsights)
	// Shard-scoped delivery protocol (see shard.go): the coordinator's
	// operator plane, not part of the advertiser API.
	handle("POST /v1/shard/delivery/begin", s.handleBeginDay)
	handle("POST /v1/shard/delivery/tick", s.handleDayTick)
	handle("POST /v1/shard/delivery/finish", s.handleFinishDay)
	handle("POST /v1/shard/delivery/abort", s.handleAbortDay)
	// Rejoin handshake: state digest + census for the supervisor's
	// digest-gated readmission of a resurrected shard.
	handle("GET /v1/shard/status", s.handleShardStatus)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	mux.Handle("GET /healthz", obs.HealthzHandler(s.reg))
	// Operational census, not part of the advertiser API: the crash-recovery
	// smoke test diffs it across a kill/restart.
	mux.HandleFunc("GET /debug/inventory", s.handleInventory)
	// Full serialized account state — the exact bytes the rejoin digest
	// hashes. A digest-gate failure is undiagnosable from the hash alone;
	// diffing two shards' /debug/state dumps names the diverging field.
	mux.HandleFunc("GET /debug/state", s.handleState)
	return mux
}

// persisted waits for the durability barrier before a mutating response is
// acked. On failure it writes the 503 and reports false; without a
// configured persister it is a no-op.
func (s *Server) persisted(w http.ResponseWriter, r *http.Request) bool {
	if s.persist == nil {
		return true
	}
	if err := s.persist.Barrier(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("marketing: durability barrier: %w", err))
		return false
	}
	return true
}

// WriteJSON writes v as the JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding failures after the header is written can only be logged by
	// the caller's transport; the types here are all marshalable.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// Decode reads a request body as one JSON value of type T, refusing unknown
// fields. On failure it has written the answer — 413 for a body past the
// route's limit, 400 for anything malformed — and reports false.
func Decode[T any](w http.ResponseWriter, body io.Reader) (T, bool) {
	var v T
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		writeBodyError(w, err)
		return v, false
	}
	return v, true
}

// writeBodyError answers a request whose body could not be read or decoded.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("marketing: request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: malformed request: %w", err))
}

// bodyPrealloc caps how much ReadBody reserves on the word of a
// Content-Length header; a longer body grows the buffer as it arrives.
const bodyPrealloc = 4 << 20

// ReadBody reads the whole request body, which the route's obs.BodyLimit
// bounds. On failure it has written the answer (413 past the limit) and
// reports false. The frontend that relays a mutation and the backend that
// scans an upload both take their one pass over the bytes it returns.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		buf.Grow(int(min(n, bodyPrealloc)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *Server) handleCreateAudience(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var ca *platform.CustomAudience
	var err error
	if name, keys, canonical := scanAudienceUpload(body); canonical {
		ca, err = s.p.CreateCustomAudienceFromKeys(name, keys)
	} else {
		req, ok := Decode[CreateAudienceRequest](w, bytes.NewReader(body))
		if !ok {
			return
		}
		ca, err = s.p.CreateCustomAudience(req.Name, req.PIIHashes)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusCreated, CreateAudienceResponse{ID: ca.ID, MatchedSize: ca.Size})
}

func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[CreateCampaignRequest](w, r.Body)
	if !ok {
		return
	}
	obj, err := platform.ParseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	special, err := platform.ParseSpecialAdCategory(req.SpecialAdCategory)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.p.CreateCampaign(req.Name, obj, special, req.AccountAge)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusCreated, CreateCampaignResponse{ID: c.ID})
}

func (s *Server) handleCreateAd(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[CreateAdRequest](w, r.Body)
	if !ok {
		return
	}
	img, err := req.Creative.Image.ToFeatures()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	targeting, err := req.Targeting.ToTargeting()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	creative := platform.Creative{
		Image:    img,
		Headline: req.Creative.Headline,
		Body:     req.Creative.Body,
		LinkURL:  req.Creative.LinkURL,
	}
	ad, err := s.p.CreateAd(req.CampaignID, creative, targeting, req.DailyBudgetCents)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusCreated, AdResponse{ID: ad.ID, Status: ad.Status.String()})
}

func (s *Server) handleAppeal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ad, err := s.p.AppealAd(id)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "unknown ad") {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, AdResponse{ID: ad.ID, Status: ad.Status.String()})
}

func (s *Server) handleGetAd(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ad, err := s.p.Ad(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, AdResponse{ID: ad.ID, Status: ad.Status.String()})
}

func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[DeliverRequest](w, r.Body)
	if !ok {
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("workers must be non-negative, got %d", req.Workers))
		return
	}
	err := s.p.RunDayWorkers(req.AdIDs, req.Seed, req.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, DeliverResponse{Delivered: len(req.AdIDs)})
}

func (s *Server) handleInventory(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.p.Inventory())
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.p.State())
}

func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request) {
	adID := r.URL.Query().Get("ad_id")
	if adID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: ad_id query parameter required"))
		return
	}
	// The breakdown parameter selects reporting dimensions, like the real
	// Insights API's `breakdowns`; omitted dimensions are aggregated out.
	dims := map[string]bool{"age": true, "gender": true, "region": true}
	if raw := r.URL.Query().Get("breakdown"); raw != "" {
		dims = map[string]bool{}
		for _, d := range strings.Split(raw, ",") {
			switch d {
			case "age", "gender", "region":
				dims[d] = true
			default:
				writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: unknown breakdown dimension %q", d))
				return
			}
		}
	}
	st, err := s.p.Insights(adID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	resp := InsightsResponse{
		AdID:        st.AdID,
		Impressions: st.Impressions,
		Reach:       st.Reach,
		Clicks:      st.Clicks,
		SpendCents:  st.SpendCents,
		Hourly:      append([]int(nil), st.HourlySeries...),
	}
	agg := map[BreakdownRow]int{}
	for k, n := range st.Breakdown {
		row := BreakdownRow{}
		if dims["age"] {
			row.Age = k.Age.String()
		}
		if dims["gender"] {
			row.Gender = k.Gender.String()
		}
		if dims["region"] {
			row.Region = k.Region.String()
		}
		agg[row] += n
	}
	for row, n := range agg {
		row.Impressions = n
		resp.Breakdown = append(resp.Breakdown, row)
	}
	sort.Slice(resp.Breakdown, func(i, j int) bool {
		a, b := resp.Breakdown[i], resp.Breakdown[j]
		if a.Age != b.Age {
			return a.Age < b.Age
		}
		if a.Gender != b.Gender {
			return a.Gender < b.Gender
		}
		return a.Region < b.Region
	})
	WriteJSON(w, http.StatusOK, *PrivatizeInsights(s.privacyConfig(), &resp))
}
