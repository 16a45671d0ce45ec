package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

func newBackend(t *testing.T) (*httptest.Server, string, *int) {
	t.Helper()
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatalf("parse backend url: %v", err)
	}
	return srv, u.Host, &hits
}

// A partitioned host errors without touching the wire — for EVERY path,
// /healthz included: a partition must fail probes, or the supervisor would
// score a cut-off shard healthy.
func TestGatePartitionBlocksAllPaths(t *testing.T) {
	srv, host, hits := newBackend(t)
	gate := NewGate()
	client := &http.Client{Transport: NewTransport(nil, nil, gate, nil)}

	gate.SetPartition(host, true)
	for _, path := range []string{"/v1/ads", "/healthz", "/metrics"} {
		resp, err := client.Get(srv.URL + path)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("partitioned GET %s succeeded", path)
		}
		var pe *partitionError
		if !errors.As(err, &pe) {
			t.Fatalf("partitioned GET %s: %v, want partitionError", path, err)
		}
	}
	if *hits != 0 {
		t.Fatalf("partitioned requests reached the backend %d times", *hits)
	}

	gate.SetPartition(host, false)
	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("after lifting partition: %v", err)
	}
	resp.Body.Close()
	if *hits != 1 {
		t.Fatalf("lifted partition: %d backend hits, want 1", *hits)
	}
}

func TestGateSlowDelays(t *testing.T) {
	srv, host, _ := newBackend(t)
	gate := NewGate()
	// The delay is slept on the transport's clock: a manual one is left 30ms
	// later and the test waits for nothing.
	clock := obs.NewManualClock()
	start := clock.Now()
	client := &http.Client{Transport: NewTransport(nil, nil, gate, clock)}
	gate.SetSlow(host, 30*time.Millisecond)
	resp, err := client.Get(srv.URL + "/v1/ads")
	if err != nil {
		t.Fatalf("slow GET: %v", err)
	}
	resp.Body.Close()
	if d := clock.Now().Sub(start); d != 30*time.Millisecond {
		t.Fatalf("slowed request cost %v of the transport's clock, want 30ms", d)
	}
	gate.SetSlow(host, 0)
}

// Rejections are synthesized without a round trip, in the API error envelope
// (with Retry-After on 429s), and counted in total and per kind.
func TestTransportInjectsRejections(t *testing.T) {
	srv, _, hits := newBackend(t)
	reg := obs.NewRegistry()
	inj, err := New(Config{Seed: 5, Rate: 1, Kinds: []Kind{KindReject429}}, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client := &http.Client{Transport: NewTransport(nil, inj, nil, nil)}

	resp, err := client.Get(srv.URL + "/v1/ads")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "0" {
		t.Fatalf("Retry-After %q, want 0", got)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || !strings.Contains(env.Error, "injected") {
		t.Errorf("error envelope: %+v, %v", env, err)
	}
	if *hits != 0 {
		t.Fatalf("rejected request reached the backend")
	}
	if got := reg.Counter(MetricInjected).Value(); got != 1 {
		t.Errorf("faults.injected = %d, want 1", got)
	}
	if got := reg.Counter(MetricInjected + "|429").Value(); got != 1 {
		t.Errorf("per-kind counter = %d, want 1", got)
	}
}

// The Transport is the injector's middleware on the client side of a round
// trip. Its 5xx rejections carry a status the schedule drew (500, 502 or 503),
// no Retry-After, and the API error envelope naming that status; none reaches
// the backend, and each is counted in total and under the 5xx kind.
func TestMiddlewareRejectionFaults(t *testing.T) {
	srv, _, hits := newBackend(t)
	reg := obs.NewRegistry()
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindReject5xx}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewTransport(nil, inj, nil, nil)}
	const requests = 20
	for i := 0; i < requests; i++ {
		resp, err := client.Get(srv.URL + "/v1/ads")
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		var env struct {
			Error string `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
		default:
			t.Fatalf("GET %d: status %d, want 500, 502 or 503", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "" {
			t.Errorf("GET %d: Retry-After %q on a %d, want none", i, got, resp.StatusCode)
		}
		if want := fmt.Sprintf("injected %d", resp.StatusCode); decodeErr != nil || !strings.Contains(env.Error, want) {
			t.Errorf("GET %d: error envelope %+v, %v; want it to name %q", i, env, decodeErr, want)
		}
	}
	if *hits != 0 {
		t.Fatalf("%d rejected requests reached the backend", *hits)
	}
	if got := reg.Counter(MetricInjected).Value(); got != requests {
		t.Errorf("faults.injected = %d, want %d", got, requests)
	}
	if got := reg.Counter(MetricInjected + "|5xx").Value(); got != requests {
		t.Errorf("per-kind counter = %d, want %d", got, requests)
	}
}

// The operational endpoints skip the schedule even at rate 1, and a zero-rate
// injector passes everything through clean and counts nothing.
func TestTransportExemptPathsAndZeroRate(t *testing.T) {
	srv, _, hits := newBackend(t)
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindReject5xx}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanReg := obs.NewRegistry()
	clean, err := New(Config{Seed: 1, Rate: 0}, cleanReg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		inj  *Injector
		path string
	}{{inj, "/metrics"}, {inj, "/healthz"}, {clean, "/v1/ads"}} {
		client := &http.Client{Transport: NewTransport(nil, tc.inj, nil, nil)}
		resp, err := client.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s faulted (status %d)", tc.path, resp.StatusCode)
		}
	}
	if *hits != 3 {
		t.Errorf("%d of 3 requests reached the backend", *hits)
	}
	if got := cleanReg.Counter(MetricInjected).Value(); got != 0 {
		t.Errorf("zero-rate injector counted %d faults", got)
	}
}

// A slow answer comes after the backend acted, whole, and late by slowDelay
// of the transport's clock.
func TestTransportSlowCompletes(t *testing.T) {
	srv, _, hits := newBackend(t)
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindSlow}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := obs.NewManualClock()
	start := clock.Now()
	client := &http.Client{Transport: NewTransport(nil, inj, nil, clock)}
	resp, err := client.Get(srv.URL + "/v1/ads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"ok":true}` || *hits != 1 {
		t.Errorf("slow answer %q after %d backend hits, want the whole body after 1", body, *hits)
	}
	if d := clock.Now().Sub(start); d != slowDelay {
		t.Errorf("slow answer cost %v of the transport's clock, want %v", d, slowDelay)
	}
}

// A drop executes the request for real — the backend's side effect happens,
// once — then reports a transport error.
func TestTransportDropExecutesThenFails(t *testing.T) {
	srv, _, hits := newBackend(t)
	inj, err := New(Config{Seed: 5, Rate: 1, Kinds: []Kind{KindDrop}}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client := &http.Client{Transport: NewTransport(nil, inj, nil, nil)}
	_, err = client.Get(srv.URL + "/v1/ads")
	if err == nil {
		t.Fatalf("dropped request returned a response")
	}
	if !strings.Contains(err.Error(), "injected connection drop") {
		t.Fatalf("drop error: %v", err)
	}
	if *hits != 1 {
		t.Fatalf("dropped request backend hits %d, want 1 (executed then discarded)", *hits)
	}
}

// A dropped mutation is cut off only after the handler has run to the end:
// it read the whole request body, once, and the caller gets neither headers
// nor a body — just the transport error.
func TestMiddlewareDropTruncatesAfterHandlerRan(t *testing.T) {
	const payload = `{"name":"camp","padding":"0123456789012345678901234567890123456789"}`
	var handlerRuns int
	var received string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerRuns++
		body, _ := io.ReadAll(r.Body)
		received = string(body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindDrop}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewTransport(nil, inj, nil, nil)}
	resp, err := client.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(payload))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dropped request returned a response (status %d)", resp.StatusCode)
	}
	if handlerRuns != 1 {
		t.Fatalf("handler ran %d times, want 1 (side effect must happen before the drop)", handlerRuns)
	}
	if received != payload {
		t.Fatalf("handler read %q, want the whole request body", received)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// closeCounter is a response body that counts the Close calls it receives.
type closeCounter struct {
	io.Reader
	closes *int
}

func (b closeCounter) Close() error {
	*b.closes++
	return nil
}

// A drop reads the backend's answer and throws it away; the body it received
// must still be closed, or every injected drop pins a connection.
func TestTransportDropClosesBody(t *testing.T) {
	responses, closes := 0, 0
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		responses++
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{},
			Body:       closeCounter{strings.NewReader(`{"ok":true}`), &closes},
			Request:    req,
		}, nil
	})
	inj, err := New(Config{Seed: 5, Rate: 1, Kinds: []Kind{KindDrop}}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, "http://shard.test/v1/ads", nil)
	if _, err := NewTransport(base, inj, nil, nil).RoundTrip(req); err == nil {
		t.Fatal("dropped request returned a response")
	}
	if responses != 1 || closes != responses {
		t.Fatalf("drop closed %d of %d response bodies, want 1 of 1", closes, responses)
	}
}
