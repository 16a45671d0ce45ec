package faults

import (
	"errors"
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

// The injector schedule applies client-side: rejections are synthesized
// (with the API error envelope and Retry-After on 429s) without a round
// trip, and exempt paths skip the schedule.
func TestTransportInjectsRejections(t *testing.T) {
	srv, _, hits := newBackend(t)
	inj, err := New(Config{Seed: 5, Rate: 1, Kinds: []Kind{KindReject429}}, nil)
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
	if *hits != 0 {
		t.Fatalf("rejected request reached the backend")
	}

	// Exempt paths skip the schedule even at rate 1.
	resp2, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("exempt GET: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || *hits != 1 {
		t.Fatalf("exempt path disturbed: status %d, hits %d", resp2.StatusCode, *hits)
	}
}

// A client-side drop executes the request for real — the backend's side
// effect happens — then reports a transport error.
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

// Mix64 is the shared seeded-schedule primitive: pure and seed-sensitive.
func TestMix64(t *testing.T) {
	if Mix64(1, 2) != Mix64(1, 2) {
		t.Fatalf("Mix64 not pure")
	}
	if Mix64(1, 2) == Mix64(2, 2) || Mix64(1, 2) == Mix64(1, 3) {
		t.Fatalf("Mix64 insensitive to seed or slot")
	}
}
