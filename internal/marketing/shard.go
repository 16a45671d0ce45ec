package marketing

// Shard-scoped delivery endpoints: the HTTP surface of the platform's
// coordinated day session (platform/delivery_session.go), consumed by
// internal/coordinator. These are operator-plane routes, not part of the
// advertiser API — an advertiser drives POST /v1/deliver and never sees
// ticks or sessions.
//
// The request/response payloads embed the platform's own wire types
// (DayInit, TickDirective, TickReport) rather than copies: encoding/json
// emits the shortest round-trip representation of every float64 and decodes
// it to the identical bits, so the pacing snapshot a coordinator freezes
// survives the HTTP hop exactly and byte-determinism holds end to end.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// BeginDayRequest opens a coordinated delivery session on one shard.
type BeginDayRequest struct {
	Session string   `json:"session"`
	AdIDs   []string `json:"ad_ids"`
	Seed    int64    `json:"seed"`
	Shard   int      `json:"shard"`
	Shards  int      `json:"shards"`
}

// DayTickRequest runs one externally paced tick under the coordinator's
// frozen per-ad snapshot.
type DayTickRequest struct {
	Session    string                   `json:"session"`
	Tick       int                      `json:"tick"`
	Directives []platform.TickDirective `json:"directives"`
}

// FinishDayRequest commits a completed session with the coordinator's
// authoritative per-ad spend totals (cents, identical on every shard).
type FinishDayRequest struct {
	Session    string    `json:"session"`
	SpendCents []float64 `json:"spend_cents"`
}

// AbortDayRequest discards a session.
type AbortDayRequest struct {
	Session string `json:"session"`
}

// dayError maps a session-layer error to its HTTP status: session conflicts
// are 409 (the coordinator's signal to abort and re-run the day), anything
// else is a plain bad request.
func dayError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, platform.ErrSessionConflict) {
		code = http.StatusConflict
	}
	writeError(w, code, err)
}

func (s *Server) handleBeginDay(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[BeginDayRequest](w, r.Body)
	if !ok {
		return
	}
	init, err := s.p.BeginDaySession(req.Session, req.AdIDs, req.Seed, req.Shard, req.Shards)
	if err != nil {
		dayError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, init)
}

func (s *Server) handleDayTick(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[DayTickRequest](w, r.Body)
	if !ok {
		return
	}
	rep, err := s.p.DaySessionTick(req.Session, req.Tick, req.Directives)
	if err != nil {
		dayError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, rep)
}

func (s *Server) handleFinishDay(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[FinishDayRequest](w, r.Body)
	if !ok {
		return
	}
	if err := s.p.FinishDaySession(req.Session, req.SpendCents); err != nil {
		dayError(w, err)
		return
	}
	// Finish is the session's only durable step (the day mutation): it acks
	// like every other mutating endpoint, after the durability barrier.
	if !s.persisted(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleAbortDay(w http.ResponseWriter, r *http.Request) {
	req, ok := Decode[AbortDayRequest](w, r.Body)
	if !ok {
		return
	}
	if err := s.p.AbortDaySession(req.Session); err != nil {
		dayError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct{}{})
}

// IsSessionConflict reports whether err is (or wraps) an HTTP 409 from the
// shard delivery protocol: the backend no longer holds the session the
// caller thinks it does. The coordinator treats it as "abort the day
// everywhere and re-run".
func IsSessionConflict(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
}

// BeginDay opens a coordinated delivery session on this backend.
func (c *Client) BeginDay(ctx context.Context, req BeginDayRequest) (*platform.DayInit, error) {
	var out platform.DayInit
	if err := c.do(ctx, http.MethodPost, "/v1/shard/delivery/begin", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DayTick runs one coordinated tick on this backend. Re-sending the
// previous tick (a retry whose response was lost) replays its report.
func (c *Client) DayTick(ctx context.Context, req DayTickRequest) (*platform.TickReport, error) {
	var out platform.TickReport
	if err := c.do(ctx, http.MethodPost, "/v1/shard/delivery/tick", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FinishDay commits a completed session on this backend.
func (c *Client) FinishDay(ctx context.Context, session string, spendCents []float64) error {
	return c.do(ctx, http.MethodPost, "/v1/shard/delivery/finish", FinishDayRequest{Session: session, SpendCents: spendCents}, nil)
}

// AbortDay discards a session on this backend; aborting an already-gone
// session succeeds.
func (c *Client) AbortDay(ctx context.Context, session string) error {
	return c.do(ctx, http.MethodPost, "/v1/shard/delivery/abort", AbortDayRequest{Session: session}, nil)
}

// ShardStatusResponse is the rejoin handshake (GET /v1/shard/status): the
// cheap world fingerprint (NumUsers), the replicated-CRUD census, whether a
// coordinated day session is open, and a digest of the REPLICATED account
// state — audiences, campaigns, ads, and the ID-allocator cursor. Two
// healthy shards hold byte-identical copies of those (the State
// serialization is a deep copy with deterministic ordering), so the digest
// is the coordinator's gate for readmitting a resurrected shard. An ad's
// targeted users are not in it: they derive from its targeting and its
// audiences' members, which are.
//
// Per-shard delivery tallies (State.Stats) are deliberately EXCLUDED: in a
// coordinated day each shard delivers only its user partition, so two
// correct shards hold complementary — different — tallies, and hashing them
// would make the gate unpassable after the first committed day. Their
// durability is the WAL barrier's contract, and fleet-level delivery
// agreement is asserted end-to-end on the merged insights surface (the
// differential soak digest), not shard-by-shard.
type ShardStatusResponse struct {
	NumUsers      int                `json:"num_users"`
	StateDigest   string             `json:"state_digest"`
	Inventory     platform.Inventory `json:"inventory"`
	SessionActive bool               `json:"session_active"`
}

func (s *Server) handleShardStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.p.State()
	st.Stats = nil // partitioned, not replicated — see ShardStatusResponse
	raw, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sum := sha256.Sum256(raw)
	WriteJSON(w, http.StatusOK, ShardStatusResponse{
		NumUsers:      s.p.NumUsers(),
		StateDigest:   hex.EncodeToString(sum[:]),
		Inventory:     s.p.Inventory(),
		SessionActive: s.p.SessionActive(),
	})
}

// ShardStatus fetches the rejoin handshake from this backend.
func (c *Client) ShardStatus(ctx context.Context) (*ShardStatusResponse, error) {
	var out ShardStatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/shard/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Inventory fetches the backend's operational object census
// (GET /debug/inventory), which the coordinator uses to assert cross-shard
// CRUD convergence.
func (c *Client) Inventory(ctx context.Context) (*platform.Inventory, error) {
	var out platform.Inventory
	if err := c.do(ctx, http.MethodGet, "/debug/inventory", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
