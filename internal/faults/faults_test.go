package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

func TestScheduleReproducible(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.2}
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var faulted int
	for i := uint64(0); i < n; i++ {
		da, db := a.ScheduleAt(i), b.ScheduleAt(i)
		if da != db {
			t.Fatalf("slot %d diverged: %+v vs %+v", i, da, db)
		}
		if da.Kind != "" {
			faulted++
		}
	}
	// At rate 0.2 the faulted share must be near 20%.
	if faulted < n*15/100 || faulted > n*25/100 {
		t.Errorf("faulted %d of %d slots at rate 0.2", faulted, n)
	}
	// A different seed draws a different schedule.
	c, err := New(Config{Seed: 43, Rate: 0.2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := uint64(0); i < n; i++ {
		if a.ScheduleAt(i) == c.ScheduleAt(i) {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced the identical schedule")
	}
}

// TestScheduleSeed42Pinned holds the request-fault schedule's (seed → fault)
// mapping to literals taken before Injector.ScheduleAt and the chaos schedule
// were moved onto the one Schedule type: a change to Schedule.At that moves
// any of the first 64 slots of seed 42 at rate 0.2 fails here.
func TestScheduleSeed42Pinned(t *testing.T) {
	want := map[uint64]Decision{
		2:  {Kind: KindSlow},
		6:  {Kind: KindDrop},
		9:  {Kind: KindReject5xx, Status: 502},
		10: {Kind: KindLatency, Latency: 2930235},
		11: {Kind: KindLatency, Latency: 2869443},
		12: {Kind: KindReject5xx, Status: 500},
		14: {Kind: KindReject429, Status: 429},
		18: {Kind: KindSlow},
		21: {Kind: KindLatency, Latency: 1975097},
		26: {Kind: KindSlow},
		29: {Kind: KindLatency, Latency: 1840787},
		32: {Kind: KindLatency, Latency: 316182},
		33: {Kind: KindLatency, Latency: 1601556},
		38: {Kind: KindDrop},
		39: {Kind: KindReject429, Status: 429},
		41: {Kind: KindReject5xx, Status: 503},
		55: {Kind: KindReject429, Status: 429},
	}
	inj, err := New(Config{Seed: 42, Rate: 0.2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if got := inj.ScheduleAt(i); got != want[i] {
			t.Errorf("slot %d: %+v, pinned %+v", i, got, want[i])
		}
	}
}

func TestScheduleCoversAllKinds(t *testing.T) {
	inj, err := New(Config{Seed: 7, Rate: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Kind]bool{}
	for i := uint64(0); i < 200; i++ {
		d := inj.ScheduleAt(i)
		if d.Kind == "" {
			t.Fatalf("rate 1 produced a clean slot at %d", i)
		}
		seen[d.Kind] = true
		switch d.Kind {
		case KindReject429:
			if d.Status != http.StatusTooManyRequests {
				t.Errorf("429 kind with status %d", d.Status)
			}
		case KindReject5xx:
			if d.Status < 500 || d.Status > 599 {
				t.Errorf("5xx kind with status %d", d.Status)
			}
		case KindLatency:
			if d.Latency < 0 || d.Latency > 3*time.Millisecond {
				t.Errorf("latency %v outside default bound", d.Latency)
			}
		}
	}
	for _, k := range AllKinds() {
		if !seen[k] {
			t.Errorf("kind %s never drawn in 200 slots at rate 1", k)
		}
	}
}

func TestParseKinds(t *testing.T) {
	for _, s := range []string{"", "all"} {
		kinds, err := ParseKinds(s)
		if err != nil || len(kinds) != len(AllKinds()) {
			t.Errorf("ParseKinds(%q) = %v, %v", s, kinds, err)
		}
	}
	kinds, err := ParseKinds("latency, drop")
	if err != nil || len(kinds) != 2 || kinds[0] != KindLatency || kinds[1] != KindDrop {
		t.Errorf("ParseKinds list = %v, %v", kinds, err)
	}
	if _, err := ParseKinds("gremlins"); err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Rate: -0.1}, nil); err == nil {
		t.Error("negative rate: want error")
	}
	if _, err := New(Config{Rate: 1.5}, nil); err == nil {
		t.Error("rate above 1: want error")
	}
}

// okHandler is a plain JSON endpoint for middleware tests.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"padding":"0123456789012345678901234567890123456789"}`)
	})
}

func TestMiddlewareRejectionFaults(t *testing.T) {
	reg := obs.NewRegistry()
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindReject429}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "0" {
		t.Errorf("Retry-After %q, want \"0\"", got)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || !strings.Contains(env.Error, "injected") {
		t.Errorf("error envelope: %+v, %v", env, err)
	}
	if got := reg.Counter(MetricInjected).Value(); got != 1 {
		t.Errorf("faults.injected = %d, want 1", got)
	}
	if got := reg.Counter(MetricInjected + "|429").Value(); got != 1 {
		t.Errorf("per-kind counter = %d, want 1", got)
	}
}

func TestMiddlewareDropTruncatesAfterHandlerRan(t *testing.T) {
	var handlerRuns int
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerRuns++
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"padding":"0123456789012345678901234567890123456789"}`)
	})
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindDrop}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(handler))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/thing")
	if err == nil {
		// The connection may deliver headers before dying; the body read
		// must then fail short of Content-Length.
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr == nil && len(body) >= 60 {
			t.Fatalf("dropped response arrived complete: %d bytes", len(body))
		}
	}
	if handlerRuns != 1 {
		t.Fatalf("handler ran %d times, want 1 (side effect must happen before the drop)", handlerRuns)
	}
}

func TestMiddlewareSlowDripCompletes(t *testing.T) {
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindSlow}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"ok":true`) {
		t.Errorf("dripped body corrupted: %q", body)
	}
}

func TestMiddlewareExemptPathsAndZeroRate(t *testing.T) {
	inj, err := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindReject5xx}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(okHandler()))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s faulted (status %d) despite exemption", path, resp.StatusCode)
		}
	}
	// Zero rate passes everything through clean.
	clean, err := New(Config{Seed: 1, Rate: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(clean.Middleware(okHandler()))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("zero-rate injector faulted: status %d", resp.StatusCode)
	}
}
