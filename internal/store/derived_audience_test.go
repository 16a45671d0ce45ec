package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// An ad record carries its targeting, not the user list the targeting
// resolves to: recovery derives the list from the audiences it has already
// applied. These tests write store files by hand — in the version-1 layout,
// which embedded the list, and in the current one — and recover from them.

// frames concatenates raw JSON payloads as framed records.
func frames(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := writeFrame(&buf, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// Three users of the test world in upload order, and the ad on them as each
// record version spells it. The version-1 ad embeds a list that disagrees
// with what its targeting resolves to.
const (
	audienceJSON = `{"id":"ca-1","name":"a","size":3,"members":[30,10,20]}`
	campaignJSON = `{"ID":"cmp-1","Name":"c"}`
	adFields     = `"id":"ad-2","campaign_id":"cmp-1","targeting":{"CustomAudienceIDs":["ca-1"]},"daily_budget_cents":100,"status":1`
	adJSON       = `{` + adFields + `}`
	adJSONv1     = `{` + adFields + `,"audience":[1,2,3,4,5]}`
)

func recordJSON(version, seq int, kind, field, payload string) string {
	return fmt.Sprintf(`{"v":%d,"seq":%d,"mut":{"kind":%q,"next_id":2,%q:%s}}`, version, seq, kind, field, payload)
}

// recoverDir recovers a fresh platform from dir and returns how many users
// its ads target, or the recovery error.
func recoverDir(t *testing.T, dir string) (int, error) {
	t.Helper()
	st, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newPlatform(t)
	if _, err := st.Recover(p); err != nil {
		return 0, err
	}
	inv := p.Inventory()
	if inv.Ads != 1 {
		t.Fatalf("recovered %d ads, want 1", inv.Ads)
	}
	if strings.Contains(stateJSON(t, p), `"audience"`) {
		t.Error("the recovered state serialises a per-ad audience")
	}
	return inv.TargetedUsers, nil
}

func TestVersion1FilesRecoverToResolvedLists(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		seg := frames(t,
			recordJSON(1, 1, "audience_created", "audience", audienceJSON),
			recordJSON(1, 2, "campaign_created", "campaign", campaignJSON),
			recordJSON(1, 3, "ad_created", "ad", adJSONv1))
		if err := os.WriteFile(filepath.Join(dir, walName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := recoverDir(t, dir); err != nil || got != 3 {
			t.Fatalf("version-1 WAL: %d targeted users (err %v), want the 3 the targeting resolves to", got, err)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		snap := fmt.Sprintf(`{"version":1,"seq":3,"world_users":%d,"state":{"version":1,"next_id":2,"audiences":[%s],"campaigns":[%s],"ads":[%s],"stats":[]}}`,
			newPlatform(t).NumUsers(), audienceJSON, campaignJSON, adJSONv1)
		if err := os.WriteFile(filepath.Join(dir, snapName(3)), frames(t, snap), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := recoverDir(t, dir); err != nil || got != 3 {
			t.Fatalf("version-1 snapshot: %d targeted users (err %v), want the 3 the targeting resolves to", got, err)
		}
	})
}

// TestFutureRecordVersionRejected: both known versions decode, the next one
// ends the usable log exactly as an unknown version always has.
func TestFutureRecordVersionRejected(t *testing.T) {
	seg := frames(t,
		recordJSON(1, 1, "audience_created", "audience", audienceJSON),
		recordJSON(2, 2, "campaign_created", "campaign", campaignJSON),
		recordJSON(3, 3, "ad_created", "ad", adJSON))
	events, _, stop := decodeSegmentBytes(t, t.TempDir(), seg)
	if len(events) != 2 || !errors.Is(stop, errCorruptRecord) || !strings.Contains(stop.Error(), "version 3") {
		t.Fatalf("decoded %d records, stop %v; want 2 and a version-3 refusal", len(events), stop)
	}
}

// TestRecoverRefusesAdWithoutItsAudience: a log whose ad names an audience no
// earlier record created fails recovery by name; a store must not come up
// serving an ad that targets nobody.
func TestRecoverRefusesAdWithoutItsAudience(t *testing.T) {
	dir := t.TempDir()
	seg := frames(t,
		recordJSON(2, 1, "campaign_created", "campaign", campaignJSON),
		recordJSON(2, 2, "ad_created", "ad", adJSON))
	if err := os.WriteFile(filepath.Join(dir, walName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := recoverDir(t, dir)
	if err == nil || !strings.Contains(err.Error(), "ad-2") || !strings.Contains(err.Error(), `"ca-1"`) {
		t.Fatalf("recovery: %v, want an error naming ad-2 and ca-1", err)
	}
}

// TestStoredBytesPinned: member lists narrowed from int to int32 in memory;
// on disk they are the same digits. One audience (uploaded out of index
// order, one hash twice), a campaign and an ad must leave the State() bytes,
// the WAL segment and the snapshot file they left before the change, which
// is where the literals were recorded.
func TestStoredBytesPinned(t *testing.T) {
	const (
		pinnedAudience = `{"id":"ca-1","name":"pinned","size":7,"members":[31,6,19,3,15,28,11]}`
		pinnedCampaign = `{"ID":"cmp-1","Name":"c","Objective":0,"SpecialCategory":0,"AccountAge":2019}`
		pinnedAd       = `{"id":"ad-2","campaign_id":"cmp-1","objective":0,"creative":{"Image":{"HasPerson":false,"GenderAxis":0,"RaceAxis":0,"AgeYears":0,"Nuisance":[0,0,0,0,0,0,0,0],"Job":""},"Headline":"h","Body":"","LinkURL":""},"targeting":{"CustomAudienceIDs":["ca-1"],"AgeMin":0,"AgeMax":0,"Genders":null,"States":null},"daily_budget_cents":200,"status":1}`
		pinnedState    = `{"version":2,"next_id":2,"review_draws":1,"audiences":[` + pinnedAudience + `],"campaigns":[` + pinnedCampaign + `],"ads":[` + pinnedAd + `],"stats":null}`
	)
	dir := t.TempDir()
	st, p, _ := openRecover(t, testOptions(dir))
	defer st.Close()
	all := piiHashes(t, 60)
	var upload []string
	for _, k := range []int{50, 12, 33, 4, 27, 12, 45, 19} {
		upload = append(upload, all[k])
	}
	ca, err := p.CreateCustomAudience("pinned", upload)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := p.CreateCampaign("c", platform.ObjectiveTraffic, platform.SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	tg := platform.Targeting{CustomAudienceIDs: []string{ca.ID}}
	if _, err := p.CreateAd(cmp.ID, platform.Creative{Headline: "h"}, tg, 200); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)
	if got := stateJSON(t, p); got != pinnedState {
		t.Errorf("State():\n got %s\nwant %s", got, pinnedState)
	}
	wantWAL := frames(t,
		`{"v":2,"seq":1,"mut":{"kind":"audience_created","next_id":0,"audience":`+pinnedAudience+`}}`,
		`{"v":2,"seq":2,"mut":{"kind":"campaign_created","next_id":1,"campaign":`+pinnedCampaign+`}}`,
		`{"v":2,"seq":3,"mut":{"kind":"ad_created","next_id":2,"review_draws":1,"ad":`+pinnedAd+`}}`)
	if got, err := os.ReadFile(filepath.Join(dir, walName(1))); err != nil || !bytes.Equal(got, wantWAL) {
		t.Errorf("WAL segment (err %v):\n got %q\nwant %q", err, got, wantWAL)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wantSnap := frames(t, fmt.Sprintf(`{"version":1,"seq":3,"world_users":%d,"state":%s}`, p.NumUsers(), pinnedState))
	if got, err := os.ReadFile(filepath.Join(dir, snapName(3))); err != nil || !bytes.Equal(got, wantSnap) {
		t.Errorf("snapshot (err %v):\n got %q\nwant %q", err, got, wantSnap)
	}
}
