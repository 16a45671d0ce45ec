package marketing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// sessionRow is one session message's row, with what the tests need to run
// it without knowing its type.
type sessionRow struct {
	name string
	// scan holds the row's scan of body to encoding/json and reports
	// whether the scan took it.
	scan func(t *testing.T, body []byte) bool
	// encode holds the row's bytes to json.Marshal's, for the value built
	// from (x, s, n) and for the value encoding/json reads from body, if any.
	encode func(t *testing.T, body []byte, x float64, s string, n int64)
	// reencode is the row's bytes for the value its scan reads from body.
	reencode func(body []byte) ([]byte, bool)
}

// rowOf wraps a row; build makes a value with every member set from the
// fuzzer's float, string and integer.
func rowOf[T any](name string, row wire[T], build func(x float64, s string, n int64) T) sessionRow {
	return sessionRow{
		name: name,
		scan: func(t *testing.T, body []byte) bool { return checkSessionScan(t, row, body) },
		encode: func(t *testing.T, body []byte, x float64, s string, n int64) {
			v := build(x, s, n)
			checkSessionEncode(t, row, &v)
			var decoded T
			if json.Unmarshal(body, &decoded) == nil {
				checkSessionEncode(t, row, &decoded)
			}
		},
		reencode: func(body []byte) ([]byte, bool) {
			v, ok := row.parse(body)
			if !ok {
				return nil, false
			}
			return row.put(nil, &v)
		},
	}
}

// sessionRows are the six session messages. Each build function gives
// every list two elements, so one float is written in several positions.
var sessionRows = []sessionRow{
	rowOf("begin", beginDayWire, func(x float64, s string, n int64) BeginDayRequest {
		return BeginDayRequest{Session: s, AdIDs: []string{s, "ad-1"}, Seed: n, Shard: int(n % 64), Shards: int(-n)}
	}),
	rowOf("init", dayInitWire, func(x float64, s string, n int64) platform.DayInit {
		ad := platform.DayAdPlan{AdID: s, DailyBudgetCents: int(n), Pacing: x}
		return platform.DayInit{Session: s, Ticks: int(n), Greedy: n%2 == 0, Ads: []platform.DayAdPlan{ad, {AdID: "ad-2", Pacing: -x}}}
	}),
	rowOf("tick", dayTickWire, func(x float64, s string, n int64) DayTickRequest {
		d := platform.TickDirective{Pacing: x, Spent: x / 3, Cap: -x}
		return DayTickRequest{Session: s, Tick: int(n), Directives: []platform.TickDirective{d, {Pacing: 1, Spent: x * 1e10, Cap: x * 1e-10}}}
	}),
	rowOf("report", tickReportWire, func(x float64, s string, n int64) platform.TickReport {
		return platform.TickReport{Tick: int(n), Spent: []float64{x, math.Nextafter(x, 0)}, Auctions: n}
	}),
	rowOf("finish", finishDayWire, func(x float64, s string, n int64) FinishDayRequest {
		return FinishDayRequest{Session: s, SpendCents: []float64{math.Round(x), x}}
	}),
	rowOf("abort", abortDayWire, func(x float64, s string, n int64) AbortDayRequest {
		return AbortDayRequest{Session: s}
	}),
}

// rowNamed finds a row of sessionRows.
func rowNamed(name string) sessionRow {
	for _, r := range sessionRows {
		if r.name == name {
			return r
		}
	}
	panic("no session row " + name)
}

// checkSessionScan is the differential property: wherever the row's scan
// accepts a body, the server's decoder (one value, unknown fields refused)
// and the client's json.Unmarshal accept it too and read the same value, to
// the bit. A declining scan yields the zero value.
func checkSessionScan[T any](t *testing.T, row wire[T], body []byte) bool {
	t.Helper()
	got, ok := row.parse(body)
	if !ok {
		var zero T
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("a declining scan returned %+v for %q", got, body)
		}
		return false
	}
	var decoded, unmarshaled T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("scan accepted %q, encoding/json refuses it: %v", body, err)
	}
	if err := json.Unmarshal(body, &unmarshaled); err != nil {
		t.Fatalf("scan accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	for _, want := range []T{decoded, unmarshaled} {
		// DeepEqual takes -0 for 0; the re-encoded bytes do not.
		if !reflect.DeepEqual(got, want) || !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
			t.Fatalf("scan read %+v, encoding/json %+v, from %q", got, want, body)
		}
	}
	return true
}

// checkSessionEncode: the row writes json.Marshal's bytes, and declines
// exactly the values json.Marshal refuses.
func checkSessionEncode[T any](t *testing.T, row wire[T], v *T) {
	t.Helper()
	got, ok := row.put(nil, v)
	want, err := json.Marshal(v)
	switch {
	case ok != (err == nil):
		t.Fatalf("row put ok=%v, json.Marshal err=%v, for %+v", ok, err, *v)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("row wrote\n %s\njson.Marshal\n %s", got, want)
	}
	if marshaled, err2 := row.marshal(v); !bytes.Equal(marshaled, want) || (err2 == nil) != (err == nil) {
		t.Fatalf("marshal gave (%s, %v), json.Marshal (%s, %v)", marshaled, err2, want, err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// realMessages is how many rows of sessionCorpus come from a real day.
const realMessages = 16

// sessionCorpus seeds FuzzSessionWire. Its first realMessages rows are real
// messages of a 2-shard coordinated day (4 ads: begin, ticks 0, 12, 23, 30
// and 47, finish), as encoding/json wrote them on the wire.
var sessionCorpus = []struct {
	row       string
	body      string
	canonical bool
}{
	{"begin", `{"session":"day-4711-1","ad_ids":["ad-2","ad-3","ad-4","ad-5"],"seed":4711,"shard":1,"shards":2}`, true},
	{"begin", `{"session":"day-4711-1","ad_ids":["ad-2","ad-3","ad-4","ad-5"],"seed":4711,"shard":0,"shards":2}`, true},
	{"init", `{"session":"day-4711-1","ticks":48,"greedy":false,"ads":[{"ad_id":"ad-2","daily_budget_cents":200,"pacing":1.216293469076117},{"ad_id":"ad-3","daily_budget_cents":250,"pacing":0.9298929617710561},{"ad_id":"ad-4","daily_budget_cents":300,"pacing":1.0266135765019768},{"ad_id":"ad-5","daily_budget_cents":350,"pacing":0.8041682858171109}]}` + "\n", true},
	{"tick", `{"session":"day-4711-1","tick":0,"directives":[{"pacing":1.5203668363451461,"spent":0,"cap":0.041666666666666664},{"pacing":1.1623662022138201,"spent":0,"cap":0.052083333333333336},{"pacing":1.283266970627471,"spent":0,"cap":0.0625},{"pacing":1.0052103572713886,"spent":0,"cap":0.07291666666666667}]}`, true},
	{"report", `{"tick":0,"spent":[0.05084423715514459,0.06207977349255061,0.07384830036741319,0.08341949532685197],"auctions":78}` + "\n", true},
	{"report", `{"tick":0,"spent":[0.06975963644116392,0.053537457270176364,0.08769341396067504,0.09076057096277337],"auctions":96}` + "\n", true},
	{"tick", `{"session":"day-4711-1","tick":12,"directives":[{"pacing":0.14051238856651616,"spent":1.1973293877386157,"cap":0.041666666666666664},{"pacing":0.10742594981529596,"spent":1.4051418654817225,"cap":0.052083333333333336},{"pacing":0.1185996056352081,"spent":1.715216816416991,"cap":0.0625},{"pacing":0.09290159778250996,"spent":1.9055970204721302,"cap":0.07291666666666667}]}`, true},
	{"report", `{"tick":12,"spent":[0.04310841270488616,0.061087750759925924,0.033716144727550884,0.04275403050549254],"auctions":86}` + "\n", true},
	{"tick", `{"session":"day-4711-1","tick":23,"directives":[{"pacing":0.01583678397316056,"spent":1.9927294274809326,"cap":0.0036352862595336877},{"pacing":0.012107697959536657,"spent":2.23990643402651,"cap":0.052083333333333336},{"pacing":0.013367051495660127,"spent":2.688627617205672,"cap":0.0625},{"pacing":0.010470696213000407,"spent":2.778125934047544,"cap":0.07291666666666667}]}`, true},
	{"report", `{"tick":23,"spent":[0.00823055419339813,0.02834127349514498,0.02774539230525573,0.03372171401758502],"auctions":75}` + "\n", true},
	{"tick", `{"session":"day-4711-1","tick":30,"directives":[{"pacing":0,"spent":2,"cap":0},{"pacing":0,"spent":2.5,"cap":0},{"pacing":0,"spent":3,"cap":0},{"pacing":0.0026101924326290306,"spent":3.2666634704663124,"cap":0.07291666666666667}]}`, true},
	{"report", `{"tick":30,"spent":[0,0,0,0.06261454747877235],"auctions":102}` + "\n", true},
	{"tick", `{"session":"day-4711-1","tick":47,"directives":[{"pacing":0,"spent":2,"cap":0},{"pacing":0,"spent":2.5,"cap":0},{"pacing":0,"spent":3,"cap":0},{"pacing":0,"spent":3.5,"cap":0}]}`, true},
	{"report", `{"tick":47,"spent":[0,0,0,0],"auctions":108}` + "\n", true},
	{"finish", `{"session":"day-4711-1","spend_cents":[200,250,300,350]}`, true},
	{"abort", `{"session":"day-4711-1"}`, true},

	// Canonical shapes a real day has not (yet) produced.
	{"report", `{"tick":3,"spent":[1e-7,1.5e+21,-0,5e-324,1.7976931348623157e+308],"auctions":-12}`, true},
	{"report", `{"tick":3,"spent":null,"auctions":0}`, true},
	{"report", `{"tick":3,"spent":[],"auctions":0}`, true},
	{"tick", `{"session":"","tick":0,"directives":null}`, true},
	{"report", `{"tick":3,"spent":[1E5,0.5e-3,2e+0],"auctions":999999999999999999}`, true}, // JSON numbers json.Marshal does not write
	{"init", `{"session":"s <&> ~","ticks":48,"greedy":true,"ads":[]}`, true},

	// Declined: encoding/json alone answers these.
	{"tick", ` {"session":"s","tick":0,"directives":[]}`, false},                                 // leading space
	{"tick", `{"session":"s", "tick":0,"directives":[]}`, false},                                 // space between members
	{"tick", `{"tick":0,"session":"s","directives":[]}`, false},                                  // other order
	{"tick", `{"session":"s","tick":0}`, false},                                                  // missing member: zero
	{"tick", `{"session":"s","tick":0,"directives":[],"x":1}`, false},                            // unknown member: 400
	{"tick", `{"session":"s","tick":0,"directives":[],"tick":1}`, false},                         // repeated member: last wins
	{"tick", `{"Session":"s","tick":0,"directives":[]}`, false},                                  // json folds key case
	{"tick", `{"session":"s\u0041","tick":0,"directives":[]}`, false},                            // escape
	{"tick", "{\"session\":\"s\xff\",\"tick\":0,\"directives\":[]}", false},                      // invalid UTF-8: json substitutes U+FFFD
	{"tick", `{"session":"sé","tick":0,"directives":[]}`, false},                                 // non-ASCII
	{"tick", "{\"session\":\"s\x01\",\"tick\":0,\"directives\":[]}", false},                      // control byte: json refuses
	{"tick", `{"session":"s","tick":1.0,"directives":[]}`, false},                                // fraction into an int: json refuses
	{"tick", `{"session":"s","tick":1e2,"directives":[]}`, false},                                // exponent into an int: json refuses
	{"tick", `{"session":"s","tick":01,"directives":[]}`, false},                                 // leading zero: json refuses
	{"tick", `{"session":"s","tick":-,"directives":[]}`, false},                                  // no digits
	{"report", `{"tick":0,"spent":[],"auctions":9223372036854775807}`, false},                    // 19 digits: json takes it
	{"report", `{"tick":0,"spent":[],"auctions":9223372036854775808}`, false},                    // past int64: json refuses
	{"report", `{"tick":0,"spent":[1e400],"auctions":0}`, false},                                 // past float64: json refuses
	{"report", `{"tick":0,"spent":[.5],"auctions":0}`, false},                                    // not a JSON number
	{"report", `{"tick":0,"spent":[1.],"auctions":0}`, false},                                    // not a JSON number
	{"report", `{"tick":0,"spent":[01],"auctions":0}`, false},                                    // not a JSON number
	{"report", `{"tick":0,"spent":[+1],"auctions":0}`, false},                                    // not a JSON number
	{"report", `{"tick":0,"spent":[NaN],"auctions":0}`, false},                                   // not a JSON number
	{"report", `{"tick":0,"spent":[1,],"auctions":0}`, false},                                    // trailing comma
	{"report", `{"tick":0,"spent":[null],"auctions":0}`, false},                                  // null element: json keeps 0
	{"report", `{"tick":0,"spent":["1"],"auctions":0}`, false},                                   // string element
	{"report", `{"tick":0,"spent":[1],"auctions":0} trailing`, false},                            // json ignores what follows
	{"report", `{"tick":0,"spent":[1],"auctions":0}{}`, false},                                   // a second value
	{"report", `{"tick":0,"spent":[1],"auctions":0`, false},                                      // truncated
	{"init", `{"session":"s","ticks":48,"greedy":nul,"ads":[]}`, false},                          // not a bool
	{"init", `{"session":"s","ticks":48,"greedy":true,"ads":[{"ad_id":"a","pacing":1}]}`, false}, // missing nested member
	{"begin", `{"session":"s","ad_ids":["a",null],"seed":1,"shard":0,"shards":1}`, false},        // null string element
	{"abort", `null`, false},
	{"abort", `{}`, false},
	{"abort", ``, false},
}

// FuzzSessionWire pins the session wire to encoding/json. For any body and
// every message, the row's scan either declines or reads exactly what
// encoding/json reads; for any value — the one encoding/json reads from the
// body, and one built from the fuzzer's float, string and integer — the row
// writes json.Marshal's bytes, and declines (so json.Marshal refuses) NaN and
// ±Inf.
//
//	go test -run '^$' -fuzz FuzzSessionWire -fuzztime 60s ./internal/marketing
func FuzzSessionWire(f *testing.F) {
	for i, c := range sessionCorpus {
		f.Add([]byte(c.body), float64(i)/7, "day-4711-1", int64(i))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte(`{"tick":1,"spent":[1],"auctions":1}`), x, `quote " html <&> `+"\u2028 \xff", int64(math.MinInt64))
	}
	f.Fuzz(func(t *testing.T, body []byte, x float64, s string, n int64) {
		for _, r := range sessionRows {
			r.scan(t, body)
			r.encode(t, body, x, s, n)
		}
	})
}

// TestSessionCorpus: the corpus rows take the path they are meant to — the
// canonical ones are not silently declined, which the differential property
// alone would let pass — and a real message re-encodes to its own bytes,
// the bytes encoding/json put on the wire.
func TestSessionCorpus(t *testing.T) {
	for _, c := range sessionCorpus {
		if got := rowNamed(c.row).scan(t, []byte(c.body)); got != c.canonical {
			t.Errorf("%s: scan accepted=%v, want %v: %q", c.row, got, c.canonical, c.body)
		}
	}
	for _, c := range sessionCorpus[:realMessages] {
		got, ok := rowNamed(c.row).reencode([]byte(c.body))
		if want := strings.TrimSuffix(c.body, "\n"); !ok || string(got) != want {
			t.Errorf("%s re-encoded as\n %s\nwas\n %s", c.row, got, want)
		}
	}
}

// TestWriteSessionIsWriteJSON: the server's session answer is WriteJSON's
// — status, headers and body — for a value the row writes and for one it
// declines.
func TestWriteSessionIsWriteJSON(t *testing.T) {
	rep := platform.TickReport{Tick: 7, Spent: []float64{0.25, 1e-7, 0}, Auctions: 41}
	for _, spent := range []float64{0.25, math.NaN()} {
		rep.Spent[0] = spent
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeSession(got, &rep, tickReportWire)
		WriteJSON(want, http.StatusOK, &rep)
		if !reflect.DeepEqual(got.Result().Header, want.Result().Header) || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("writeSession: %d %v %q, WriteJSON: %d %v %q", got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

// TestSessionClientBytes: what the client's session calls send is
// json.Marshal of the request, and a NaN in a request is refused with
// json.Marshal's error before anything is sent.
func TestSessionClientBytes(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		sent = append(sent, body)
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/shard/delivery/begin":
			fmt.Fprint(w, sessionCorpus[2].body)
		case "/v1/shard/delivery/tick":
			fmt.Fprint(w, ` {"tick":0, "spent":[0.5],"auctions":3}`) // not canonical: json.Unmarshal reads it
		default:
			fmt.Fprint(w, "{}\n")
		}
	}))
	defer ts.Close()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	begin := BeginDayRequest{Session: "day-1-1", AdIDs: []string{"ad-1", "ad-<2>"}, Seed: -3, Shard: 1, Shards: 2}
	init, err := c.BeginDay(ctx, begin)
	if err != nil {
		t.Fatal(err)
	}
	var wantInit platform.DayInit
	if err := json.Unmarshal([]byte(sessionCorpus[2].body), &wantInit); err != nil || !reflect.DeepEqual(*init, wantInit) {
		t.Errorf("BeginDay read %+v, want %+v (%v)", *init, wantInit, err)
	}
	tick := DayTickRequest{Session: "day-1-1", Tick: 0, Directives: []platform.TickDirective{{Pacing: 1.5, Spent: 0, Cap: 1e-9}}}
	rep, err := c.DayTick(ctx, tick)
	if err != nil || !reflect.DeepEqual(*rep, platform.TickReport{Spent: []float64{0.5}, Auctions: 3}) {
		t.Errorf("DayTick read %+v, %v", rep, err)
	}
	if err := c.FinishDay(ctx, "day-1-1", []float64{200, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := c.AbortDay(ctx, "day-1-1"); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		mustMarshal(t, begin),
		mustMarshal(t, tick),
		mustMarshal(t, FinishDayRequest{Session: "day-1-1", SpendCents: []float64{200, 0.5}}),
		mustMarshal(t, AbortDayRequest{Session: "day-1-1"}),
	}
	if !reflect.DeepEqual(sent, want) {
		t.Errorf("sent\n %q\nwant\n %q", sent, want)
	}
	err = c.FinishDay(ctx, "day-1-1", []float64{math.Inf(1)})
	if err == nil || err.Error() != "marketing: encoding request: json: unsupported value: +Inf" || len(sent) != 4 {
		t.Errorf("FinishDay(+Inf): %v after %d requests", err, len(sent))
	}
}

// answerLog is a transport that records every answer body by idempotency
// key, beneath whatever drops it.
type answerLog struct {
	base  http.RoundTripper
	mu    sync.Mutex
	byKey map[string][][]byte
	path  map[string]string
}

func (l *answerLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	key := req.Header.Get(IdempotencyKeyHeader)
	l.mu.Lock()
	l.byKey[key] = append(l.byKey[key], body)
	l.path[key] = req.URL.Path
	l.mu.Unlock()
	return resp, nil
}

// dropFirst drops the answers to the first drops attempts under each
// idempotency key on the begin and tick routes, through faults.Transport's
// drop: the shard executes each, the client sees a cut connection and
// retries under the same key.
type dropFirst struct {
	drop, pass http.RoundTripper
	drops      int
	mu         sync.Mutex
	attempts   map[string]int
}

func (d *dropFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Header.Get(IdempotencyKeyHeader)
	d.mu.Lock()
	d.attempts[key]++
	n := d.attempts[key]
	d.mu.Unlock()
	if key != "" && n <= d.drops && (strings.HasSuffix(req.URL.Path, "/begin") || strings.HasSuffix(req.URL.Path, "/tick")) {
		return d.drop.RoundTrip(req)
	}
	return d.pass.RoundTrip(req)
}

// sessionAccount creates the account the session tests deliver: one
// audience, one campaign, two ads.
func sessionAccount(t *testing.T, c *Client) []string {
	t.Helper()
	ctx := context.Background()
	ca, err := c.CreateAudience(ctx, "session", testEnv(t).worldHashes(3000))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := c.CreateCampaign(ctx, CreateCampaignRequest{Name: "session", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		ad, err := c.CreateAd(ctx, CreateAdRequest{
			CampaignID:       cmp.ID,
			Creative:         WireCreative{Headline: fmt.Sprint("session ", i)},
			Targeting:        WireTargeting{CustomAudienceIDs: []string{ca.ID}},
			DailyBudgetCents: 300 + 100*i,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// TestDroppedSessionAnswersReplay: the replay cache's duty on begin and tick
// is the protocol's. The answers to the first two attempts of the begin and
// of every tick are dropped after the shard executed them; each retry, under
// the same key, gets the very bytes the first execution answered, nothing is
// replayed from the cache, and the day the retried calls ran is the day one
// process delivers in place.
func TestDroppedSessionAnswersReplay(t *testing.T) {
	const seed = 77
	p, _ := uploadPlatform(t)
	p.SetMutationHook(nil)
	s, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	plain, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ids := sessionAccount(t, plain)
	cached := len(s.idem.entries)

	log := &answerLog{base: http.DefaultTransport, byKey: map[string][][]byte{}, path: map[string]string{}}
	inj, err := faults.New(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindDrop}}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTransport(&dropFirst{drop: faults.NewTransport(log, inj, nil, nil), pass: log, drops: 2, attempts: map[string]int{}})
	c.SetClock(obs.NewManualClock())
	ctx := context.Background()
	init, err := c.BeginDay(ctx, BeginDayRequest{Session: "dropped", AdIDs: ids, Seed: seed, Shard: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := platform.NewPacingController(init, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		rep, err := c.DayTick(ctx, DayTickRequest{Session: "dropped", Tick: tick, Directives: ctrl.TickDirectives(tick)})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.CommitTick([][]float64{rep.Spent}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FinishDay(ctx, "dropped", ctrl.SpendCents()); err != nil {
		t.Fatal(err)
	}

	retried := 0
	for key, bodies := range log.byKey {
		if path := log.path[key]; !strings.HasSuffix(path, "/begin") && !strings.HasSuffix(path, "/tick") {
			continue
		}
		retried++
		if len(bodies) != 3 {
			t.Fatalf("%s under key %s answered %d times, want 3", log.path[key], key, len(bodies))
		}
		for _, b := range bodies[1:] {
			if !bytes.Equal(b, bodies[0]) {
				t.Errorf("%s under key %s: a retry got\n %s\nthe first execution\n %s", log.path[key], key, b, bodies[0])
			}
		}
	}
	if retried != 1+ctrl.Ticks() {
		t.Errorf("%d begin and tick calls retried, want %d", retried, 1+ctrl.Ticks())
	}
	if got := s.reg.Counter(MetricIdempotentReplays).Value(); got != 0 {
		t.Errorf("%d answers replayed from the cache, want 0", got)
	}
	if got := len(s.idem.entries); got != cached+1 {
		t.Errorf("the day left %d entries in the replay cache, want the %d it found plus finish's", got, cached)
	}

	ref, _ := uploadPlatform(t)
	rs, err := NewServer(ref)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()
	refClient, err := NewClient(rts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if refIDs := sessionAccount(t, refClient); !reflect.DeepEqual(refIDs, ids) {
		t.Fatalf("reference ads %v, want %v", refIDs, ids)
	}
	if err := refClient.DeliverWorkers(ctx, ids, seed, 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := plain.Insights(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refClient.Insights(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the retried session delivered %+v, one process %+v", id, got, want)
		}
	}
}

// tickWireCase is BenchmarkTickWire's message pair: shard 0's tick 23 of
// the corpus day, four ads.
func tickWireCase(b *testing.B) (DayTickRequest, platform.TickReport) {
	req, ok := dayTickWire.parse([]byte(sessionCorpus[8].body))
	rep, ok2 := tickReportWire.parse([]byte(sessionCorpus[9].body))
	if !ok || !ok2 || len(req.Directives) != 4 {
		b.Fatal("the corpus tick was declined")
	}
	return req, rep
}

// BenchmarkTickWire is one tick's JSON on both ends, the session wire
// against encoding/json as the parent used it: the coordinator encodes the
// request (json.Marshal) and the shard decodes it (json.Decoder, unknown
// fields refused); the shard encodes the report (json.Encoder) and the
// coordinator decodes it (json.Unmarshal).
//
//	go test -run '^$' -bench TickWire -benchmem ./internal/marketing
func BenchmarkTickWire(b *testing.B) {
	req, rep := tickWireCase(b)
	reqBody, _ := dayTickWire.marshal(&req)
	repBody := append(mustMarshalB(b, &rep), '\n')
	b.Run("request/encode/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dayTickWire.marshal(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request/encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request/decode/row", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reqBody)))
		for i := 0; i < b.N; i++ {
			if _, ok := dayTickWire.parse(reqBody); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("request/decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(reqBody)))
		for i := 0; i < b.N; i++ {
			var v DayTickRequest
			dec := json.NewDecoder(bytes.NewReader(reqBody))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
	var out bytes.Buffer
	b.Run("report/encode/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			buf, _ := tickReportWire.put(make([]byte, 0, sessionBuf), &rep)
			out.Write(append(buf, '\n'))
		}
	})
	b.Run("report/encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := json.NewEncoder(&out).Encode(&rep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("report/decode/row", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(repBody)))
		for i := 0; i < b.N; i++ {
			if _, ok := tickReportWire.parse(repBody); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("report/decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(repBody)))
		for i := 0; i < b.N; i++ {
			var v platform.TickReport
			if err := json.Unmarshal(repBody, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustMarshalB(b *testing.B, v any) []byte {
	b.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return out
}
