package marketing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/mathrand"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// Client-side metric names (recorded into the registry passed to
// SetMetrics).
const (
	// MetricClientRetries counts retried attempts (attempts beyond the
	// first for any call).
	MetricClientRetries = "client.retries"
)

// RetryPolicy shapes the client's retry loop: exponential backoff with equal
// jitter, honoring server Retry-After hints.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including the
	// first. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. The actual wait is jittered uniformly
	// in [delay/2, delay] so synchronized clients do not stampede.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
}

// DefaultRetryPolicy mirrors the paper's polite collection posture: a few
// patient retries, never a stampede.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Client is the advertiser-side API client the audit tooling uses. It is
// hardened against a flaky platform: every call takes a context, retries
// retryable failures with jittered exponential backoff (honoring
// Retry-After), and attaches idempotency keys to mutating requests so a
// retried POST cannot double-create. It keeps no failure streak and
// never refuses a call on its own: whether a service is in or out is the
// server's to say (a fleet router answers 503 + Retry-After), and the
// client's part is to back off as told.
type Client struct {
	baseURL string
	http    *http.Client

	mu    sync.Mutex
	clock obs.Clock
	retry RetryPolicy
	reg   *obs.Registry

	idemBase string
	idemSeq  atomic.Uint64
}

// NewClient builds a client for the API at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("marketing: invalid base URL %q", baseURL)
	}
	return &Client{
		baseURL:  strings.TrimRight(baseURL, "/"),
		http:     &http.Client{Timeout: 10 * time.Minute},
		clock:    obs.SystemClock,
		retry:    DefaultRetryPolicy(),
		reg:      obs.NewRegistry(),
		idemBase: fmt.Sprintf("ck-%08x", rand.Uint32()),
	}, nil
}

// APIError is a non-2xx response from the API.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, zero when absent. A
	// present-but-zero header (shed/injected 429s) still means "retryable
	// now", which Retryable reports via the status code.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("marketing: API error %d: %s", e.StatusCode, e.Message)
}

// Retryable classifies the status code: true for responses that a later
// identical request may survive (throttling, timeouts, server-side
// failures), false for terminal client errors (validation, not-found,
// oversized payloads) where retrying only repeats the rejection.
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusRequestTimeout, // 408
		http.StatusTooManyRequests,     // 429
		http.StatusInternalServerError, // 500
		http.StatusBadGateway,          // 502
		http.StatusServiceUnavailable,  // 503
		http.StatusGatewayTimeout:      // 504
		return true
	}
	return false
}

// Retryable reports whether err is worth retrying: retryable API statuses
// and transport-level failures (connection drops, truncated bodies) are;
// terminal API errors and context cancellation are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	// Anything else got no HTTP answer at all: a network or truncation
	// failure, retryable by definition.
	return true
}

// SetClock replaces the clock behind the retry backoff. A nil clock
// restores the system clock.
func (c *Client) SetClock(clock obs.Clock) {
	if clock == nil {
		clock = obs.SystemClock
	}
	c.mu.Lock()
	c.clock = clock
	c.mu.Unlock()
}

// SetRetryPolicy replaces the retry policy. A zero MaxAttempts restores the
// default policy.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts <= 0 {
		p = DefaultRetryPolicy()
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy().BaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// SetTransport replaces the client's underlying HTTP transport (nil
// restores the default). Faults are injected this way — a faults.Transport
// with its seeded schedule and partition gate — on a router's whole shard
// path and on adload's workload. Call it before the client's first request;
// the transport is not guarded for mid-flight swaps.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.http.Transport = rt
}

// Healthz performs one liveness probe (GET /healthz): a single attempt with
// no retries and no backoff, so a supervisor's probe loop observes the raw
// transport outcome on its own cadence.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.once(ctx, http.MethodGet, "/healthz", nil, "")
	return err
}

// SetMetrics points the client's retry counter at reg, so a router counts
// its shard clients' retries in its own registry. Nil restores a private
// registry.
func (c *Client) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// Metrics returns the registry the client counts into.
func (c *Client) Metrics() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg
}

// backoffDelay computes the jittered wait before retry number `retry`
// (1-based), raised to the server's Retry-After hint when that is larger.
// The jitter is a hash of the clock reading: on the system clock its
// nanoseconds scatter clients that failed together, and on a manual clock the
// whole retry schedule is a function of that clock, so a simulated fleet
// replays.
func (c *Client) backoffDelay(retry int, retryAfter time.Duration) time.Duration {
	c.mu.Lock()
	p := c.retry
	h := uint64(c.clock.Now().UnixNano()+int64(retry)) * mathrand.Gamma
	c.mu.Unlock()
	jitter := mathrand.Unit(h)
	d := p.BaseDelay << uint(retry-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Equal jitter: [d/2, d].
	d = d/2 + time.Duration(jitter*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// nextIdempotencyKey mints a key unique to this client instance and call.
func (c *Client) nextIdempotencyKey() string {
	return fmt.Sprintf("%s-%d", c.idemBase, c.idemSeq.Add(1))
}

// idemKeyContextKey carries an explicit idempotency key through a context.
type idemKeyContextKey struct{}

// WithIdempotencyKey returns a context that makes mutating calls under it
// carry the given idempotency key instead of a freshly minted one. A
// frontend that fans one inbound mutating request out to several backends
// forwards the inbound key this way: if the frontend's own response is lost
// and its caller retries, the re-executed fan-out deduplicates at every
// backend instead of double-creating on the shards that already executed.
func WithIdempotencyKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, idemKeyContextKey{}, key)
}

// do encodes in, runs the call through roundTrip and decodes the answer
// into out (either may be nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("marketing: encoding request: %w", err)
		}
	}
	return c.send(ctx, method, path, body, out)
}

// send is do for a body that is already encoded.
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any) error {
	payload, err := c.roundTrip(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("marketing: decoding response: %w", err)
	}
	return nil
}

// Post sends an already-encoded JSON body to a mutating route and returns
// the response payload undecoded. It is the entry a frontend relays an
// inbound request through: the bytes it received go to the backend as they
// are, under the idempotency key on ctx (WithIdempotencyKey), through the
// same resilience stack as every typed call.
func (c *Client) Post(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.roundTrip(ctx, http.MethodPost, path, body)
}

// Get reads a route and decodes its JSON answer into out: the read-side
// twin of Post, through the same resilience stack. It is the entry for
// routes outside the typed API, such as a router's topology, GET /metrics
// or GET /debug/state; tests read those through it.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.send(ctx, http.MethodGet, path, nil, out)
}

// roundTrip runs one API call through the full resilience stack: attempt,
// classify, back off, retry. Mutating methods carry an idempotency
// key that stays constant across retries, so the server can deduplicate a
// retried create whose first response was lost. It returns the 2xx response
// payload.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	idemKey := ""
	if method != http.MethodGet {
		if k, _ := ctx.Value(idemKeyContextKey{}).(string); k != "" {
			idemKey = k
		} else {
			idemKey = c.nextIdempotencyKey()
		}
	}
	c.mu.Lock()
	maxAttempts := c.retry.MaxAttempts
	clock := c.clock
	retries := c.reg.Counter(MetricClientRetries)
	c.mu.Unlock()
	if maxAttempts <= 0 {
		maxAttempts = 1
	}

	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			retries.Inc()
		}
		payload, err := c.once(ctx, method, path, body, idemKey)
		if err == nil {
			return payload, nil
		}
		lastErr = err
		if !Retryable(err) {
			return nil, err
		}
		if attempt == maxAttempts {
			break
		}
		var retryAfter time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			retryAfter = apiErr.RetryAfter
		}
		clock.Sleep(c.backoffDelay(attempt, retryAfter))
	}
	return nil, fmt.Errorf("marketing: %s %s failed after %d attempts: %w", method, path, maxAttempts, lastErr)
}

// once performs a single HTTP attempt and returns the 2xx response payload.
func (c *Client) once(ctx context.Context, method, path string, body []byte, idemKey string) ([]byte, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("marketing: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	// Read the whole body before judging the response: a connection cut
	// mid-body (Content-Length mismatch) surfaces here as a read error and
	// must be treated as transport failure, not as a short success.
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("marketing: %s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr ErrorResponse
		msg := resp.Status
		if jsonErr := json.Unmarshal(payload, &apiErr); jsonErr == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return nil, &APIError{
			StatusCode: resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.clockNow()),
		}
	}
	return payload, nil
}

// clockNow reads the injectable clock.
func (c *Client) clockNow() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock.Now()
}

// parseRetryAfter handles both forms of the header: delay-seconds and
// HTTP-date. Unparseable or absent values yield zero.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// CreateAudience uploads PII hashes and returns the matched audience.
func (c *Client) CreateAudience(ctx context.Context, name string, piiHashes []string) (*CreateAudienceResponse, error) {
	var out CreateAudienceResponse
	err := c.send(ctx, http.MethodPost, "/v1/customaudiences", encodeAudienceRequest(name, piiHashes), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateCampaign registers a campaign.
func (c *Client) CreateCampaign(ctx context.Context, req CreateCampaignRequest) (*CreateCampaignResponse, error) {
	var out CreateCampaignResponse
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateAd creates one ad and reports its review status.
func (c *Client) CreateAd(ctx context.Context, req CreateAdRequest) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ads", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppealAd appeals a rejected ad.
func (c *Client) AppealAd(ctx context.Context, adID string) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ads/"+url.PathEscape(adID)+"/appeal", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetAd fetches an ad's status.
func (c *Client) GetAd(ctx context.Context, adID string) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodGet, "/v1/ads/"+url.PathEscape(adID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Deliver runs the listed ads for one simulated day without a worker count:
// one shard on a single server, the fleet width behind a router.
func (c *Client) Deliver(ctx context.Context, adIDs []string, seed int64) error {
	return c.DeliverWorkers(ctx, adIDs, seed, 0)
}

// DeliverWorkers runs the listed ads for one simulated day with an explicit
// delivery shard count (0 is Deliver's default, 1 is the single live shard
// of the historical sequential day; the server refuses a count above 64).
func (c *Client) DeliverWorkers(ctx context.Context, adIDs []string, seed int64, workers int) error {
	return c.do(ctx, http.MethodPost, "/v1/deliver", DeliverRequest{AdIDs: adIDs, Seed: seed, Workers: workers}, nil)
}

// Insights fetches the delivery report for an ad with the full
// age×gender×region breakdown.
func (c *Client) Insights(ctx context.Context, adID string) (*InsightsResponse, error) {
	var out InsightsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/insights?ad_id="+url.QueryEscape(adID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InsightsBreakdown fetches the delivery report broken down by only the
// requested dimensions (any of "age", "gender", "region").
func (c *Client) InsightsBreakdown(ctx context.Context, adID string, dims ...string) (*InsightsResponse, error) {
	var out InsightsResponse
	path := "/v1/insights?ad_id=" + url.QueryEscape(adID) + "&breakdown=" + url.QueryEscape(strings.Join(dims, ","))
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
