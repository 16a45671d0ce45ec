package marketing

// Shard-scoped delivery endpoints: the HTTP surface of the platform's
// coordinated day session (platform/delivery_session.go), consumed by
// internal/coordinator. These are operator-plane routes, not part of the
// advertiser API — an advertiser drives POST /v1/deliver and never sees
// ticks or sessions.
//
// The request/response payloads embed the platform's own wire types
// (DayInit, TickDirective, TickReport) rather than copies, and their JSON is
// encoding/json's: the session wire (session_wire.go) writes the very bytes
// json.Marshal writes and scans them back without reflection, handing
// anything it does not recognise to encoding/json. Every float64 travels as
// the shortest decimal that round-trips, so the pacing snapshot a
// coordinator freezes survives the HTTP hop exactly and byte-determinism
// holds end to end.
//
// Begin, tick and abort are idempotent by protocol, so the server registers
// them without the replay cache (Server.Handler): a repeated tick replays
// its recorded report, a repeated begin replaces the session with the same
// one, aborting a missing session is a no-op, and the platform's lock
// serialises a duplicate that arrives while the first is in flight. Finish,
// the session's one durable step, keeps the cache like every other mutation.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// readSession reads a session request: the canonical bytes the client
// writes are scanned by the message's row, anything else is answered by
// Decode.
func readSession[T any](w http.ResponseWriter, r *http.Request, row wire[T]) (T, bool) {
	body, ok := ReadBody(w, r)
	if !ok {
		var zero T
		return zero, false
	}
	if v, ok := row.parse(body); ok {
		return v, true
	}
	return Decode[T](w, bytes.NewReader(body))
}

// writeSession is WriteJSON(w, http.StatusOK, v), its bytes written by the
// message's row.
func writeSession[T any](w http.ResponseWriter, v *T, row wire[T]) {
	buf, ok := row.put(make([]byte, 0, sessionBuf), v)
	if !ok {
		WriteJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(buf, '\n'))
}

func (s *Server) handleBeginDay(w http.ResponseWriter, r *http.Request) {
	req, ok := readSession(w, r, beginDayWire)
	if !ok {
		return
	}
	init, err := s.p.BeginDaySession(req.Session, req.AdIDs, req.Seed, req.Shard, req.Shards)
	if err != nil {
		dayError(w, err)
		return
	}
	writeSession(w, init, dayInitWire)
}

func (s *Server) handleDayTick(w http.ResponseWriter, r *http.Request) {
	req, ok := readSession(w, r, dayTickWire)
	if !ok {
		return
	}
	rep, err := s.p.DaySessionTick(req.Session, req.Tick, req.Directives)
	if err != nil {
		dayError(w, err)
		return
	}
	writeSession(w, rep, tickReportWire)
}

func (s *Server) handleFinishDay(w http.ResponseWriter, r *http.Request) {
	req, ok := readSession(w, r, finishDayWire)
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
	req, ok := readSession(w, r, abortDayWire)
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

// sessionPost posts one session message, its bytes written by the
// message's row, and returns the answer's payload: Client.do for the
// session routes.
func sessionPost[Req any](ctx context.Context, c *Client, path string, req *Req, row wire[Req]) ([]byte, error) {
	body, err := row.marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marketing: encoding request: %w", err)
	}
	return c.roundTrip(ctx, http.MethodPost, path, body)
}

// sessionCall is sessionPost with the answer read into a fresh Resp:
// scanned by the answer's row, or by json.Unmarshal where the row declines.
func sessionCall[Req, Resp any](ctx context.Context, c *Client, path string, req *Req, reqRow wire[Req], respRow wire[Resp]) (*Resp, error) {
	payload, err := sessionPost(ctx, c, path, req, reqRow)
	if err != nil {
		return nil, err
	}
	if out, ok := respRow.parse(payload); ok {
		return &out, nil
	}
	out := new(Resp)
	if err := json.Unmarshal(payload, out); err != nil {
		return nil, fmt.Errorf("marketing: decoding response: %w", err)
	}
	return out, nil
}

// BeginDay opens a coordinated delivery session on this backend.
func (c *Client) BeginDay(ctx context.Context, req BeginDayRequest) (*platform.DayInit, error) {
	return sessionCall(ctx, c, "/v1/shard/delivery/begin", &req, beginDayWire, dayInitWire)
}

// DayTick runs one coordinated tick on this backend. Re-sending the
// previous tick (a retry whose response was lost) replays its report.
func (c *Client) DayTick(ctx context.Context, req DayTickRequest) (*platform.TickReport, error) {
	return sessionCall(ctx, c, "/v1/shard/delivery/tick", &req, dayTickWire, tickReportWire)
}

// FinishDay commits a completed session on this backend.
func (c *Client) FinishDay(ctx context.Context, session string, spendCents []float64) error {
	_, err := sessionPost(ctx, c, "/v1/shard/delivery/finish", &FinishDayRequest{Session: session, SpendCents: spendCents}, finishDayWire)
	return err
}

// AbortDay discards a session on this backend; aborting an already-gone
// session succeeds.
func (c *Client) AbortDay(ctx context.Context, session string) error {
	_, err := sessionPost(ctx, c, "/v1/shard/delivery/abort", &AbortDayRequest{Session: session}, abortDayWire)
	return err
}

// ShardStatusResponse is the rejoin handshake (GET /v1/shard/status): the
// cheap world fingerprint (NumUsers), whether a coordinated day session is
// open, and a digest of the REPLICATED account state — audiences, campaigns,
// ads, the ID-allocator cursor and the review cursor. Two healthy shards
// hold byte-identical copies of those (the State serialization is a deep
// copy with deterministic ordering), so the digest is the coordinator's gate
// for readmitting a resurrected shard. An ad's targeted users are not in it:
// they derive from its targeting and its audiences' members, which are.
//
// Per-shard delivery tallies (State.Stats) are deliberately EXCLUDED: in a
// coordinated day each shard delivers only its user partition, so two
// correct shards hold complementary — different — tallies, and hashing them
// would make the gate unpassable after the first committed day. Their
// durability is the WAL barrier's contract, and fleet-level delivery
// agreement is asserted end-to-end on the merged insights surface (the
// differential soak digest), not shard-by-shard.
type ShardStatusResponse struct {
	NumUsers      int    `json:"num_users"`
	StateDigest   string `json:"state_digest"`
	SessionActive bool   `json:"session_active"`
}

// replicated is the replicated half of the account as bytes: the State
// without its Stats. The status digest hashes these bytes and the state
// transfer relays them, so the gate and the transfer cannot disagree on
// what is replicated.
func (s *Server) replicated() ([]byte, error) {
	st := s.p.State()
	st.Stats = nil
	return json.Marshal(st)
}

func (s *Server) handleShardStatus(w http.ResponseWriter, _ *http.Request) {
	raw, err := s.replicated()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sum := sha256.Sum256(raw)
	WriteJSON(w, http.StatusOK, ShardStatusResponse{
		NumUsers:      s.p.NumUsers(),
		StateDigest:   hex.EncodeToString(sum[:]),
		SessionActive: s.p.SessionActive(),
	})
}

func (s *Server) handleReplicated(w http.ResponseWriter, _ *http.Request) {
	raw, err := s.replicated()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// snapshotter is the part of a durable store an installed state needs: the
// install emits no mutation, so only a snapshot makes WAL recovery
// reproduce it.
type snapshotter interface{ Snapshot() error }

// handleInstallReplicated installs a peer's replicated half over this
// shard's account, keeping the shard's own delivery half
// (platform.Restore), then snapshots the store. A completed ad the shard
// lacks and an open day session are 409s.
func (s *Server) handleInstallReplicated(w http.ResponseWriter, r *http.Request) {
	st, ok := Decode[platform.State](w, r.Body)
	if !ok {
		return
	}
	var snap snapshotter
	if s.persist != nil {
		if snap, ok = s.persist.(snapshotter); !ok {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("marketing: the store cannot snapshot an installed state"))
			return
		}
	}
	if err := s.p.Restore(&st, true); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, platform.ErrDeliveryLost) || errors.Is(err, platform.ErrSessionActive) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	if snap != nil {
		if err := snap.Snapshot(); err != nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("marketing: snapshot after install: %w", err))
			return
		}
	}
	WriteJSON(w, http.StatusOK, struct{}{})
}

// ShardStatus fetches the rejoin handshake from this backend.
func (c *Client) ShardStatus(ctx context.Context) (*ShardStatusResponse, error) {
	var out ShardStatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/shard/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Replicated fetches the replicated half of this backend's account, the
// bytes its status digest hashes, undecoded.
func (c *Client) Replicated(ctx context.Context) ([]byte, error) {
	return c.roundTrip(ctx, http.MethodGet, "/v1/shard/replicated", nil)
}

// InstallReplicated hands this backend a peer's replicated half as Replicated
// returned it.
func (c *Client) InstallReplicated(ctx context.Context, raw []byte) error {
	_, err := c.roundTrip(ctx, http.MethodPut, "/v1/shard/replicated", raw)
	return err
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
