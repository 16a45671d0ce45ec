package marketing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
)

// fakeHashes are n well-formed hex hashes that match nobody in particular.
func fakeHashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprint("row", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// strictDecodeAudience is the generic path handleCreateAudience falls back
// to: one JSON value, unknown fields refused, whatever follows ignored.
func strictDecodeAudience(body []byte) (CreateAudienceRequest, error) {
	var req CreateAudienceRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

const (
	hexA = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	hexB = "ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"
)

// audienceCorpus is the seed corpus of FuzzAudienceDecode; canonical says
// whether the scan is expected to take the body itself.
var audienceCorpus = []struct {
	body      string
	canonical bool
}{
	{`{"name":"a","pii_hashes":["` + hexA + `"]}`, true},
	{`{"name":"a","pii_hashes":["` + hexA + `","` + hexB + `","` + hexA + `"]}` + "\n", true},
	{`{"name":"","pii_hashes":["` + hexA + `"]}`, true},                                 // refused later, by the platform
	{`{"name":"Ünïcode <&> name","pii_hashes":["` + hexA + `"]}`, true},                 // raw UTF-8 needs no escape
	{`{"name":"a","pii_hashes":["` + strings.ToUpper(hexA) + `"]}`, true},               // uppercase hex
	{`{"name":"a","pii_hashes":["A` + hexA[1:] + `"]}`, true},                           // one capital digit
	{`{"name":"a","pii_hashes":["` + hexA + `"]}  ` + "\r\n\t", true},                   // white space after
	{`{"name":"a\u0041","pii_hashes":["` + hexA + `"]}`, false},                         // escape in the name
	{`{"name":"a\"b","pii_hashes":["` + hexA + `"]}`, false},                            // escaped quote
	{"{\"name\":\"a\xff\",\"pii_hashes\":[\"" + hexA + "\"]}", false},                   // invalid UTF-8: json substitutes U+FFFD
	{"{\"name\":\"a\x01\",\"pii_hashes\":[\"" + hexA + "\"]}", false},                   // control byte: json refuses
	{`{"name":"a","pii_hashes":["\u0030` + hexA[1:] + `"]}`, false},                     // escape in a hash
	{`{"name":"a","pii_hashes":["` + hexA[:63] + `"]}`, false},                          // 63 characters
	{`{"name":"a","pii_hashes":["` + hexA + `0"]}`, false},                              // 65 characters
	{`{"name":"a","pii_hashes":["` + hexA[:63] + `g"]}`, false},                         // 64, not hex
	{`{"name":"a","pii_hashes":["` + hexA + `",7]}`, false},                             // non-string element
	{`{"name":"a","pii_hashes":["` + hexA + `",null]}`, false},                          // null element
	{`{"name":"a","pii_hashes":["` + hexA + `"],"name":"b"}`, false},                    // duplicate key: last wins
	{`{"name":"a","pii_hashes":["` + hexA + `"],"pii_hashes":["` + hexB + `"]}`, false}, // duplicate list
	{`{"name":"a","PII_HASHES":["` + hexA + `"]}`, false},                               // json folds key case
	{`{"Name":"a","pii_hashes":["` + hexA + `"]}`, false},
	{`{"pii_hashes":["` + hexA + `"],"name":"a"}`, false},             // other key order
	{`{"name":"a","pii_hashes":["` + hexA + `"],"extra":1}`, false},   // unknown field: 400
	{`{"name":"a","pii_hashes":["` + hexA + `"]} trailing`, false},    // json ignores what follows
	{`{"name":"a","pii_hashes":["` + hexA + `"]}{"name":"b"}`, false}, // a second value
	{`{"name":"a","pii_hashes":["` + hexA + `",]}`, false},            // trailing comma
	{`{"name":"a","pii_hashes":["` + hexA + `"`, false},               // truncated
	{`{"name":"a","pii_hashes":null}`, false},                         // null list
	{`{"name":"a","pii_hashes":[]}`, false},                           // empty list
	{`{"name":"a"}`, false},                                           // no list
	{` { "name" : "a" , "pii_hashes" : [ "` + hexA + `" ] } `, false}, // white space everywhere
	{"{\n\t\"name\": \"a\",\n\t\"pii_hashes\": [\n\t\t\"" + hexA + "\"\n\t]\n}", false},
	{`null`, false},
	{`[]`, false},
	{`"name"`, false},
	{``, false},
	{`{"name":"a","pii_hashes":"` + hexA + `"}`, false}, // string, not list
	{`{"name":7,"pii_hashes":["` + hexA + `"]}`, false}, // wrong type
}

// checkScanAgainstJSON is the differential property: wherever the scan
// accepts a body, encoding/json accepts it too and yields the same name and
// the same keys in the same order.
func checkScanAgainstJSON(t *testing.T, body []byte) (canonical bool) {
	t.Helper()
	name, keys, ok := scanAudienceUpload(body)
	if !ok {
		if name != "" || keys != nil {
			t.Fatalf("a declining scan returned (%q, %d keys) for %q", name, len(keys), body)
		}
		return false
	}
	req, err := strictDecodeAudience(body)
	if err != nil {
		t.Fatalf("scan accepted %q, encoding/json refuses it: %v", body, err)
	}
	if req.Name != name {
		t.Fatalf("scan read name %q, encoding/json %q, from %q", name, req.Name, body)
	}
	if len(keys) == 0 || len(req.PIIHashes) != len(keys) {
		t.Fatalf("scan read %d keys, encoding/json %d hashes, from %q", len(keys), len(req.PIIHashes), body)
	}
	for i, h := range req.PIIHashes {
		// Every element the scan takes is a well-formed hash, so the
		// []string path skips none and the two uploads are equal row by row.
		if want, wellFormed := population.DecodePIIKey(h); !wellFormed || want != keys[i] {
			t.Fatalf("key %d: scan %x, encoding/json %q, from %q", i, keys[i], h, body)
		}
	}
	return true
}

// FuzzAudienceDecode pins the one-pass upload scan to the encoding/json
// decoder that defines the API: for any body the scan either declines, and
// the decoder alone answers, or reads exactly what the decoder reads.
func FuzzAudienceDecode(f *testing.F) {
	for _, c := range audienceCorpus {
		f.Add([]byte(c.body))
	}
	f.Add(encodeAudienceRequest("fuzz", fakeHashes(40)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanAgainstJSON(t, body)
	})
}

// TestScanAudienceUploadCorpus: the corpus rows take the path they are meant
// to — in particular the canonical ones are not silently declined, which the
// differential property alone would let pass.
func TestScanAudienceUploadCorpus(t *testing.T) {
	for _, c := range audienceCorpus {
		if got := checkScanAgainstJSON(t, []byte(c.body)); got != c.canonical {
			t.Errorf("scan accepted=%v, want %v: %q", got, c.canonical, c.body)
		}
	}
	// What the client sends is canonical whenever the name is plain and the
	// hashes are hashes.
	big := encodeAudienceRequest("bench audience 7", fakeHashes(5000))
	if !checkScanAgainstJSON(t, big) {
		t.Error("the client's own encoding of a 5000-hash upload was declined")
	}
}

// TestEncodeAudienceRequestEqualsMarshal: the client's append loop writes
// json.Marshal's bytes, for plain and for awkward names and hashes alike.
func TestEncodeAudienceRequestEqualsMarshal(t *testing.T) {
	check := func(name string, hashes []string) bool {
		want, err := json.Marshal(CreateAudienceRequest{Name: name, PIIHashes: hashes})
		if err != nil {
			t.Fatal(err)
		}
		got := encodeAudienceRequest(name, hashes)
		if !bytes.Equal(got, want) {
			t.Errorf("encodeAudienceRequest(%q, %q):\n got %s\nwant %s", name, hashes, got, want)
			return false
		}
		return true
	}
	check("plain", fakeHashes(3))
	check("", nil)
	check("empty, not nil", []string{})
	check(`quote " backslash \ html <&> line`+"\u2028 nul \x00 bad \xff", []string{
		hexA, "", `"`, `\`, "<", ">", "&", "\x7f", "\x1f", "é", " ", "\xfe", strings.ToUpper(hexB),
	})
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// uploadPlatform is a fresh platform over the shared test world, with its
// emitted mutations captured.
func uploadPlatform(t *testing.T) (*platform.Platform, *[]platform.Mutation) {
	t.Helper()
	e := testEnv(t)
	cfg := platform.DefaultConfig(503)
	cfg.Training.LogRows = 2000
	cfg.ReviewRejectProb = 0
	p, err := platform.New(cfg, e.pop, e.behave)
	if err != nil {
		t.Fatal(err)
	}
	var log []platform.Mutation
	p.SetMutationHook(func(m platform.Mutation) { log = append(log, m) })
	return p, &log
}

// worldHashes are the upload rows of the first n voters, a stranger and a
// repeat mixed in.
func (e *env) worldHashes(n int) []string {
	hashes := fakeHashes(1)
	for i := range e.fl.Records[:n] {
		r := &e.fl.Records[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return append(hashes, hashes[1])
}

// postUpload sends one raw upload body to a server over the platform.
func postUpload(t *testing.T, p *platform.Platform, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	s, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/customaudiences", bytes.NewReader(body)))
	return rec
}

// shardDigest is the rejoin gate's digest of the platform's state.
func shardDigest(t *testing.T, p *platform.Platform) string {
	t.Helper()
	s, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shard/status", nil))
	var st ShardStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.StateDigest == "" {
		t.Fatalf("shard status: %v (%s)", err, rec.Body)
	}
	return st.StateDigest
}

// TestUploadPathsLeaveIdenticalState: one upload through the []string
// wrapper, through the scan and through the encoding/json fallback leaves the
// same State() bytes, the same emitted mutation (what the WAL records) and
// the same rejoin digest.
func TestUploadPathsLeaveIdenticalState(t *testing.T) {
	e := testEnv(t)
	hashes := e.worldHashes(1500)

	direct, directLog := uploadPlatform(t)
	ca, err := direct.CreateCustomAudience("same", hashes)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Size == 0 || ca.Size > 1500 {
		t.Fatalf("matched %d of 1500 voters", ca.Size)
	}

	canonical := encodeAudienceRequest("same", hashes)
	spaced, err := json.MarshalIndent(CreateAudienceRequest{Name: "same", PIIHashes: hashes}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := scanAudienceUpload(canonical); !ok {
		t.Fatal("the canonical body was declined")
	}
	if _, _, ok := scanAudienceUpload(spaced); ok {
		t.Fatal("the indented body was not declined")
	}
	wantState, _ := json.Marshal(direct.State())
	wantLog, _ := json.Marshal(*directLog)
	wantDigest := shardDigest(t, direct)
	for name, body := range map[string][]byte{"scan": canonical, "fallback": spaced} {
		p, log := uploadPlatform(t)
		rec := postUpload(t, p, body)
		want := fmt.Sprintf(`{"id":"ca-1","matched_size":%d}`+"\n", ca.Size)
		if rec.Code != http.StatusCreated || rec.Body.String() != want {
			t.Fatalf("%s: %d %s, want 201 %s", name, rec.Code, rec.Body, want)
		}
		if got, _ := json.Marshal(p.State()); !bytes.Equal(got, wantState) {
			t.Errorf("%s: State() differs from the []string upload's", name)
		}
		if got, _ := json.Marshal(*log); !bytes.Equal(got, wantLog) {
			t.Errorf("%s: emitted mutations differ from the []string upload's", name)
		}
		if got := shardDigest(t, p); got != wantDigest {
			t.Errorf("%s: state digest %s, want %s", name, got, wantDigest)
		}
	}
}

// TestUploadErrorsSameOnBothPaths: the scan hands the platform the same
// refusals the decoder path does, and whatever it declines is answered by the
// decoder with the status and text it always had.
func TestUploadErrorsSameOnBothPaths(t *testing.T) {
	p, _ := uploadPlatform(t)
	for _, c := range []struct {
		body string
		code int
		text string
	}{
		{`{"name":"","pii_hashes":["` + hexA + `"]}`, 400, "platform: custom audience needs a name"},
		{`{ "name":"","pii_hashes":["` + hexA + `"]}`, 400, "platform: custom audience needs a name"},
		{`{"name":"n","pii_hashes":[]}`, 400, `platform: custom audience "n": empty upload`},
		{`{"name":"n","pii_hashes":null}`, 400, `platform: custom audience "n": empty upload`},
		{`{"name":"n","pii_hashes":["` + hexA + `"],"x":1}`, 400, `marketing: malformed request: json: unknown field "x"`},
		{`{"name":"n","pii_hashes":["` + hexA + `"`, 400, "marketing: malformed request: unexpected EOF"},
		{``, 400, "marketing: malformed request: EOF"},
		{`{"name":"n","pii_hashes":["short"]}`, 201, ""}, // ill-formed hashes match nobody
	} {
		rec := postUpload(t, p, []byte(c.body))
		if rec.Code != c.code {
			t.Errorf("%q: status %d, want %d (%s)", c.body, rec.Code, c.code, rec.Body)
			continue
		}
		if c.text != "" {
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != c.text {
				t.Errorf("%q: error %q, want %q", c.body, e.Error, c.text)
			}
		}
	}

	limited, err := NewServer(p, WithLimits(ServerLimits{MaxBodyBytes: 256}))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{
		encodeAudienceRequest("big", fakeHashes(4)), // canonical, past the limit
		bytes.Repeat([]byte(" "), 300),              // not even JSON
	} {
		rec := httptest.NewRecorder()
		limited.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/customaudiences", bytes.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "marketing: request body exceeds 256 bytes") {
			t.Errorf("%d-byte body under a 256-byte limit: %d %s", len(body), rec.Code, rec.Body)
		}
	}
}

// TestAudienceIngestAllocations: scanning and matching a canonical upload
// allocates a fixed number of objects — the body buffer, the key and member
// slices, the audience — however many hashes it carries.
func TestAudienceIngestAllocations(t *testing.T) {
	e := testEnv(t)
	p, _ := uploadPlatform(t)
	p.SetMutationHook(nil)
	s, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(n int) float64 {
		body := encodeAudienceRequest("allocs", e.worldHashes(n))
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/customaudiences", bytes.NewReader(body))
			s.handleCreateAudience(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("upload of %d: %d %s", n, rec.Code, rec.Body)
			}
		})
	}
	small, large := ingest(100), ingest(10000)
	t.Logf("allocations per upload: %.0f at 100 hashes, %.0f at 10000", small, large)
	// The request and recorder scaffolding is the same at both sizes; what
	// may differ is a growth step of the platform's audience map.
	if large > small+4 {
		t.Errorf("allocations grow with the upload: %.0f at 100 hashes, %.0f at 10000", small, large)
	}
	if small > 60 {
		t.Errorf("a 100-hash upload allocated %.0f objects", small)
	}
}

// benchUploads are the serve and fleet workloads' upload sizes.
var benchUploads = []int{2000, 20000}

// BenchmarkAudienceEncode is the client's side of an upload: the append loop
// against json.Marshal of the same request.
//
//	go test -run '^$' -bench 'AudienceEncode|AudienceDecode' -benchtime 100x -benchmem ./internal/marketing
func BenchmarkAudienceEncode(b *testing.B) {
	for _, n := range benchUploads {
		hashes := fakeHashes(n)
		b.Run(fmt.Sprintf("append/hashes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.SetBytes(int64(len(encodeAudienceRequest("bench", hashes))))
			}
		})
		b.Run(fmt.Sprintf("json/hashes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := json.Marshal(CreateAudienceRequest{Name: "bench", PIIHashes: hashes})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
	}
}

// BenchmarkAudienceDecode is the server's side: the one-pass scan to raw
// keys against the encoding/json decoder it falls back to.
func BenchmarkAudienceDecode(b *testing.B) {
	for _, n := range benchUploads {
		body := encodeAudienceRequest("bench", fakeHashes(n))
		b.Run(fmt.Sprintf("scan/hashes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, keys, ok := scanAudienceUpload(body); !ok || len(keys) != n {
					b.Fatalf("scan read %d of %d keys", len(keys), n)
				}
			}
		})
		b.Run(fmt.Sprintf("json/hashes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if req, err := strictDecodeAudience(body); err != nil || len(req.PIIHashes) != n {
					b.Fatalf("decoded %d of %d hashes: %v", len(req.PIIHashes), n, err)
				}
			}
		})
	}
}
