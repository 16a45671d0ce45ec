// Package marketing exposes the simulated platform through an HTTP JSON API
// shaped like an advertiser-facing marketing API, plus a Go client. The
// audit code drives the platform exclusively through this interface — the
// paper's methodology is defined by what an advertiser can see (campaign
// CRUD, audience uploads, delivery breakdowns) and cannot see (user
// identities, the delivery model), and routing everything through the API
// keeps the reproduction honest about that boundary.
package marketing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode/utf8"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
)

// CreateAudienceRequest uploads a PII-hash list for matching.
type CreateAudienceRequest struct {
	Name      string   `json:"name"`
	PIIHashes []string `json:"pii_hashes"`
}

// The canonical audience upload, as json.Marshal and encodeAudienceRequest
// write a CreateAudienceRequest with a plain name and hex hashes:
//
//	{"name":"<plain>","pii_hashes":["<64 hex>","<64 hex>",…]}
const (
	audienceHead = `{"name":"`
	audienceMid  = `","pii_hashes":[`
	// hashElem is one quoted 64-hex element plus the byte that follows it.
	hashElem = 1 + 2*len(population.PIIKey{}) + 1 + 1
)

// encodeAudienceRequest writes the bytes json.Marshal gives for the request,
// with one table-checked append per hash instead of the reflective walk.
func encodeAudienceRequest(name string, piiHashes []string) []byte {
	// Marshal of a string cannot fail: invalid UTF-8 is replaced, not refused.
	quoted, _ := json.Marshal(name)
	buf := make([]byte, 0, len(audienceHead)+len(quoted)+len(audienceMid)+hashElem*len(piiHashes))
	buf = append(buf, `{"name":`...)
	buf = append(buf, quoted...)
	buf = append(buf, `,"pii_hashes":`...)
	if piiHashes == nil {
		return append(buf, `null}`...)
	}
	buf = append(buf, '[')
	for i, h := range piiHashes {
		if i > 0 {
			buf = append(buf, ',')
		}
		if plainJSON(h) {
			buf = append(buf, '"')
			buf = append(buf, h...)
			buf = append(buf, '"')
		} else {
			quoted, _ = json.Marshal(h)
			buf = append(buf, quoted...)
		}
	}
	return append(buf, `]}`...)
}

// jsonPlain marks the bytes json.Marshal copies into a string unchanged:
// printable ASCII but for the characters it escapes.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// plainJSON reports whether json.Marshal writes s between quotes as it is.
func plainJSON(s string) bool {
	plain := true
	for i := 0; i < len(s); i++ {
		plain = plain && jsonPlain[s[i]]
	}
	return plain
}

// scanAudienceUpload reads a canonical audience upload in one pass, each
// hash straight to its raw key: no []string, no string per hash, no
// reflection. It recognises that one shape and nothing else. ok is false —
// the scan declines — for escapes or invalid UTF-8 in the name, any other
// key order, spelling or spacing, an element that is not 64 hex characters,
// an empty list, or anything but white space after the closing brace; the
// caller then decodes the body with encoding/json, which alone defines what
// is accepted and how the rest is refused. FuzzAudienceDecode holds the two
// to the same answer wherever the scan accepts.
func scanAudienceUpload(body []byte) (name string, keys []population.PIIKey, ok bool) {
	rest, found := bytes.CutPrefix(body, []byte(audienceHead))
	if !found {
		return "", nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", nil, false
	}
	rawName := rest[:end]
	for _, c := range rawName {
		if c < 0x20 || c == '\\' {
			return "", nil, false
		}
	}
	if !utf8.Valid(rawName) {
		return "", nil, false
	}
	if rest, found = bytes.CutPrefix(rest[end:], []byte(audienceMid)); !found {
		return "", nil, false
	}
	keys = make([]population.PIIKey, 0, len(rest)/hashElem)
	for more := true; more; rest = rest[hashElem:] {
		if len(rest) < hashElem || rest[0] != '"' || rest[hashElem-2] != '"' {
			return "", nil, false
		}
		key, isKey := population.DecodePIIKey(rest[1 : hashElem-2])
		if !isKey {
			return "", nil, false
		}
		keys = append(keys, key)
		switch rest[hashElem-1] {
		case ',':
		case ']':
			more = false
		default:
			return "", nil, false
		}
	}
	if len(rest) == 0 || rest[0] != '}' {
		return "", nil, false
	}
	for _, c := range rest[1:] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return "", nil, false
		}
	}
	return string(rawName), keys, true
}

// CreateAudienceResponse reports the matched audience.
type CreateAudienceResponse struct {
	ID          string `json:"id"`
	MatchedSize int    `json:"matched_size"`
}

// CreateCampaignRequest creates a campaign.
type CreateCampaignRequest struct {
	Name              string `json:"name"`
	Objective         string `json:"objective"`
	SpecialAdCategory string `json:"special_ad_category,omitempty"`
	AccountAge        int    `json:"account_age,omitempty"`
}

// CreateCampaignResponse reports the new campaign ID.
type CreateCampaignResponse struct {
	ID string `json:"id"`
}

// WireImage is the JSON form of an ad image. It carries the feature-space
// representation (the reproduction's stand-in for uploading image bytes).
type WireImage struct {
	HasPerson  bool      `json:"has_person"`
	GenderAxis float64   `json:"gender_axis"`
	RaceAxis   float64   `json:"race_axis"`
	AgeYears   float64   `json:"age_years"`
	Nuisance   []float64 `json:"nuisance"`
	Job        string    `json:"job,omitempty"`
}

// ToFeatures converts the wire form, validating the nuisance length.
func (w *WireImage) ToFeatures() (image.Features, error) {
	f := image.Features{
		HasPerson:  w.HasPerson,
		GenderAxis: w.GenderAxis,
		RaceAxis:   w.RaceAxis,
		AgeYears:   w.AgeYears,
		Job:        w.Job,
	}
	if len(w.Nuisance) != 0 && len(w.Nuisance) != image.NumNuisance {
		return image.Features{}, fmt.Errorf("marketing: nuisance vector length %d, want %d", len(w.Nuisance), image.NumNuisance)
	}
	copy(f.Nuisance[:], w.Nuisance)
	return f, nil
}

// WireImageFrom converts features to the wire form.
func WireImageFrom(f image.Features) WireImage {
	return WireImage{
		HasPerson:  f.HasPerson,
		GenderAxis: f.GenderAxis,
		RaceAxis:   f.RaceAxis,
		AgeYears:   f.AgeYears,
		Nuisance:   append([]float64(nil), f.Nuisance[:]...),
		Job:        f.Job,
	}
}

// WireCreative is the JSON form of an ad creative.
type WireCreative struct {
	Image    WireImage `json:"image"`
	Headline string    `json:"headline"`
	Body     string    `json:"body"`
	LinkURL  string    `json:"link_url"`
}

// WireTargeting is the JSON form of a targeting spec.
type WireTargeting struct {
	CustomAudienceIDs []string `json:"custom_audience_ids"`
	AgeMin            int      `json:"age_min,omitempty"`
	AgeMax            int      `json:"age_max,omitempty"`
	Genders           []string `json:"genders,omitempty"`
	States            []string `json:"states,omitempty"`
}

// ToTargeting converts the wire form.
func (w *WireTargeting) ToTargeting() (platform.Targeting, error) {
	t := platform.Targeting{
		CustomAudienceIDs: w.CustomAudienceIDs,
		AgeMin:            w.AgeMin,
		AgeMax:            w.AgeMax,
	}
	for _, g := range w.Genders {
		pg, err := demo.ParseGender(g)
		if err != nil {
			return platform.Targeting{}, err
		}
		t.Genders = append(t.Genders, pg)
	}
	for _, s := range w.States {
		ps, err := demo.ParseState(s)
		if err != nil {
			return platform.Targeting{}, err
		}
		t.States = append(t.States, ps)
	}
	return t, nil
}

// CreateAdRequest creates one ad.
type CreateAdRequest struct {
	CampaignID       string        `json:"campaign_id"`
	Creative         WireCreative  `json:"creative"`
	Targeting        WireTargeting `json:"targeting"`
	DailyBudgetCents int           `json:"daily_budget_cents"`
}

// AdResponse reports an ad's identity and review status.
type AdResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// DeliverRequest advances the simulated clock: it runs the listed ads for
// one 24-hour window. This is the reproduction's substitute for waiting a
// real day.
type DeliverRequest struct {
	AdIDs []string `json:"ad_ids"`
	Seed  int64    `json:"seed"`
	// Workers selects the day's shard count. 0 (the default, and what older
	// clients send) defers to the server's configured default; 1 is the
	// single live shard of the historical sequential day; a count outside
	// [0, 64] is refused with 400. Delivery output is deterministic for a
	// fixed (seed, workers) pair.
	Workers int `json:"workers,omitempty"`
}

// DeliverResponse acknowledges the run.
type DeliverResponse struct {
	Delivered int `json:"delivered"`
}

// BreakdownRow is one insights row: impressions for an age × gender ×
// region cell.
type BreakdownRow struct {
	Age         string `json:"age"`
	Gender      string `json:"gender"`
	Region      string `json:"region"`
	Impressions int    `json:"impressions"`
}

// InsightsResponse is the delivery report for one ad.
type InsightsResponse struct {
	AdID        string         `json:"ad_id"`
	Impressions int            `json:"impressions"`
	Reach       int            `json:"reach"`
	Clicks      int            `json:"clicks"`
	SpendCents  float64        `json:"spend_cents"`
	Breakdown   []BreakdownRow `json:"breakdown"`
	// Hourly is impressions per pacing interval over the delivery day; its
	// sum equals Impressions.
	Hourly []int `json:"hourly,omitempty"`
	// Privacy describes the privatization applied to this report. nil means
	// the report is raw (privacy level off) — the field is omitted entirely
	// so the privacy-off wire format is byte-identical to the pre-privacy
	// API. A server or coordinator never privatizes a response whose Privacy
	// field is already set (idempotence), and a coordinator refuses to merge
	// pre-privatized shard responses (merge-then-privatize).
	Privacy *WirePrivacy `json:"privacy,omitempty"`
}

// WirePrivacy records the privatization a report passed through.
type WirePrivacy struct {
	Level string `json:"level"`
	// K is the k-anonymity threshold (0 when level is off).
	K int `json:"k,omitempty"`
	// Epsilon is the DP noise parameter (0 unless level is k-anon+dp).
	Epsilon float64 `json:"epsilon,omitempty"`
	// SuppressedCells counts the breakdown cells withheld from this report.
	SuppressedCells int `json:"suppressed_cells"`
}

// ErrorResponse is the API error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
