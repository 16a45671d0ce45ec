package marketing

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// fastRetry is a retry policy with sub-millisecond delays so tests that do
// use the real clock stay instant.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}
}

// newResilienceClient builds a client against ts with a fake clock, so every
// backoff sleep is recorded instead of waited out.
func newResilienceClient(t *testing.T, ts *httptest.Server) (*Client, *obs.ManualClock) {
	t.Helper()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fc := obs.NewManualClock()
	client.SetClock(fc)
	return client, fc
}

// slept is how far a manual clock has been slept past its starting instant.
func slept(c *obs.ManualClock) time.Duration {
	return c.Now().Sub(obs.NewManualClock().Now())
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"ad-1","status":"ACTIVE"}`)
	}))
	defer ts.Close()

	client, fc := newResilienceClient(t, ts)
	ad, err := client.GetAd(context.Background(), "ad-1")
	if err != nil {
		t.Fatalf("expected success after retries: %v", err)
	}
	if ad.ID != "ad-1" {
		t.Errorf("ad ID %q", ad.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := client.Metrics().Counter(MetricClientRetries).Value(); got != 2 {
		t.Errorf("retries counter %d, want 2", got)
	}
	if slept(fc) <= 0 {
		t.Error("expected backoff sleeps on the injected clock")
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"ad-1","status":"ACTIVE"}`)
	}))
	defer ts.Close()

	client, fc := newResilienceClient(t, ts)
	if _, err := client.GetAd(context.Background(), "ad-1"); err != nil {
		t.Fatal(err)
	}
	// The backoff before the retry must be raised to the server's hint.
	if got := slept(fc); got < 7*time.Second {
		t.Errorf("slept %v, want >= 7s (Retry-After floor)", got)
	}
}

func TestClientDoesNotRetryTerminalErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"marketing: no such thing"}`)
	}))
	defer ts.Close()

	client, _ := newResilienceClient(t, ts)
	_, err := client.GetAd(context.Background(), "nope")
	if err == nil {
		t.Fatal("expected error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err %v, want APIError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts for a terminal 400, want 1", got)
	}
	if got := client.Metrics().Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retries counter %d, want 0", got)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer ts.Close()

	client, _ := newResilienceClient(t, ts)
	client.SetRetryPolicy(fastRetry(3))
	_, err := client.GetAd(context.Background(), "ad-1")
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Errorf("error %q should name the attempt budget", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Errorf("exhaustion error should wrap the last APIError, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestAPIErrorClassification(t *testing.T) {
	retryable := []int{408, 429, 500, 502, 503, 504}
	terminal := []int{400, 401, 403, 404, 409, 413, 422}
	for _, code := range retryable {
		if e := (&APIError{StatusCode: code}); !e.Retryable() {
			t.Errorf("status %d should be retryable", code)
		}
	}
	for _, code := range terminal {
		if e := (&APIError{StatusCode: code}); e.Retryable() {
			t.Errorf("status %d should be terminal", code)
		}
	}

	if Retryable(nil) {
		t.Error("nil error is not retryable")
	}
	if Retryable(context.Canceled) || Retryable(context.DeadlineExceeded) {
		t.Error("context errors are not retryable")
	}
	if !Retryable(errors.New("connection reset by peer")) {
		t.Error("transport errors are retryable")
	}
	if !Retryable(fmt.Errorf("wrap: %w", &APIError{StatusCode: 503})) {
		t.Error("wrapped retryable APIError should classify as retryable")
	}
}

func TestIdempotencyKeyConstantAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(IdempotencyKeyHeader))
		mu.Unlock()
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"cmp-1"}`)
	}))
	defer ts.Close()

	client, _ := newResilienceClient(t, ts)
	if _, err := client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "x", Objective: "TRAFFIC"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	firstKeys := append([]string(nil), keys...)
	mu.Unlock()
	if len(firstKeys) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(firstKeys))
	}
	if firstKeys[0] == "" {
		t.Fatal("mutating request carried no idempotency key")
	}
	if firstKeys[0] != firstKeys[1] {
		t.Errorf("retry changed the idempotency key: %q then %q", firstKeys[0], firstKeys[1])
	}
	// A fresh call mints a fresh key.
	calls.Store(1) // make the next attempt succeed immediately
	if _, err := client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "y", Objective: "TRAFFIC"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := keys[len(keys)-1]
	mu.Unlock()
	if last == firstKeys[0] {
		t.Errorf("distinct calls reused idempotency key %q", last)
	}
}

// TestRetriedCreateDoesNotDoubleCreate drives the full client/server
// idempotency handshake through a lost response: the first execution's
// answer is dropped on the floor, the client's retry carries the same key,
// and the server must replay the memoized response instead of re-executing.
func TestRetriedCreateDoesNotDoubleCreate(t *testing.T) {
	var executions atomic.Int64
	create := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := executions.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":"cmp-%d"}`, n)
	})
	cache := newIdemCache()
	reg := obs.NewRegistry()
	inner := cache.middleware(reg, create)

	var dropped atomic.Bool
	chain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropped.CompareAndSwap(false, true) {
			// Execute (side effect happens, response is memoized) but never
			// answer: the sanctioned connection abort loses the response.
			inner.ServeHTTP(httptest.NewRecorder(), r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(chain)
	defer ts.Close()

	client, _ := newResilienceClient(t, ts)
	resp, err := client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "once", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatalf("retried create failed: %v", err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times for one logical create, want 1", got)
	}
	if resp.ID != "cmp-1" {
		t.Errorf("replayed response ID %q, want cmp-1", resp.ID)
	}
	if got := reg.Counter(MetricIdempotentReplays).Value(); got != 1 {
		t.Errorf("idempotent_replays %d, want 1", got)
	}
}

// blockingClock parks every Sleep until released, to prove a backoff sleeps
// outside the client mutex.
type blockingClock struct {
	now      time.Time
	entered  chan struct{}
	release  chan struct{}
	enterOne sync.Once
}

func (b *blockingClock) Now() time.Time { return b.now }

func (b *blockingClock) Sleep(d time.Duration) {
	b.enterOne.Do(func() { close(b.entered) })
	<-b.release
}

// TestRetryBackoffHoldsNoLock: while one call is parked in its retry
// backoff, other client operations that need the mutex must proceed.
func TestRetryBackoffHoldsNoLock(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"ad-1","status":"ACTIVE"}`)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	bc := &blockingClock{
		now:     time.Unix(1_700_000_000, 0),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	client.SetClock(bc)

	// The first attempt draws a 503, so the call parks in its backoff sleep.
	done := make(chan error, 1)
	go func() {
		_, err := client.GetAd(context.Background(), "ad-1")
		done <- err
	}()
	select {
	case <-bc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the call never reached its backoff sleep")
	}

	// The sleeper holds no lock: mutating client configuration completes.
	cfgDone := make(chan struct{})
	go func() {
		client.SetRetryPolicy(DefaultRetryPolicy())
		close(cfgDone)
	}()
	select {
	case <-cfgDone:
	case <-time.After(2 * time.Second):
		t.Fatal("SetRetryPolicy blocked behind a sleeping backoff: mutex held across Sleep")
	}

	close(bc.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// countingBody is a response body that counts the Close calls it receives.
type countingBody struct {
	io.Reader
	closes *atomic.Int64
}

func (b countingBody) Close() error {
	b.closes.Add(1)
	return nil
}

// scripted is one canned answer: a status, a body and whether the body is
// cut off after what it holds.
type scripted struct {
	status    int
	body      string
	truncated bool
}

// bodyCounter is a RoundTripper that serves a script of answers in order and
// counts the bodies it hands out and the closes they receive.
type bodyCounter struct {
	script            []scripted
	responses, closes atomic.Int64
}

func (b *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	n := int(b.responses.Load())
	if n >= len(b.script) {
		return nil, fmt.Errorf("request %d beyond a script of %d answers", n+1, len(b.script))
	}
	b.responses.Add(1)
	a := b.script[n]
	var body io.Reader = strings.NewReader(a.body)
	if a.truncated {
		body = io.MultiReader(body, iotest.ErrReader(io.ErrUnexpectedEOF))
	}
	return &http.Response{
		StatusCode: a.status,
		Status:     http.StatusText(a.status),
		Header:     http.Header{},
		Body:       countingBody{body, &b.closes},
		Request:    req,
	}, nil
}

// TestClientClosesEveryResponseBody holds the client to the transport
// contract on every path that receives a response: a body left open pins its
// keep-alive connection, and a handful of leaks stalls the audit like a slow
// shard would. The client is the only reader of responses in the program, so
// this test is the whole check.
func TestClientClosesEveryResponseBody(t *testing.T) {
	ctx := context.Background()
	ad := scripted{http.StatusOK, `{"id":"ad-1","status":"ACTIVE"}`, false}
	getAd := func(c *Client) error {
		_, err := c.GetAd(ctx, "ad-1")
		return err
	}
	cases := []struct {
		name    string
		script  []scripted
		call    func(*Client) error
		wantErr bool
	}{
		{"2xx decode", []scripted{ad}, getAd, false},
		{"terminal 4xx", []scripted{{http.StatusNotFound, `{"error":"marketing: no such ad"}`, false}}, getAd, true},
		{"503 then retry", []scripted{{http.StatusServiceUnavailable, "", false}, ad}, getAd, false},
		{"truncated body", []scripted{{http.StatusOK, `{"id":"ad`, true}, ad}, getAd, false},
		{"Healthz", []scripted{{http.StatusOK, "ok", false}}, func(c *Client) error { return c.Healthz(ctx) }, false},
		{"Get", []scripted{{http.StatusOK, `{"shards":2}`, false}}, func(c *Client) error {
			var topo struct{ Shards int }
			return c.Get(ctx, "/v1/topology", &topo)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, err := NewClient("http://shard.test")
			if err != nil {
				t.Fatal(err)
			}
			client.SetClock(obs.NewManualClock())
			rt := &bodyCounter{script: tc.script}
			client.SetTransport(rt)
			if err := tc.call(client); (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			responses, closes := rt.responses.Load(), rt.closes.Load()
			if responses != int64(len(tc.script)) {
				t.Fatalf("client received %d responses, want %d", responses, len(tc.script))
			}
			if closes != responses {
				t.Errorf("client closed %d of %d response bodies", closes, responses)
			}
		})
	}
}
