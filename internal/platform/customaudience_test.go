package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
)

// oracleResolveAudience is resolveAudience as it stood before the merge:
// a map union, the targeting filter, then a sort.
func oracleResolveAudience(p *Platform, t *Targeting) ([]int32, error) {
	inUnion := map[int32]bool{}
	for _, id := range t.CustomAudienceIDs {
		ca, err := p.audienceLocked(id)
		if err != nil {
			return nil, err
		}
		for _, idx := range ca.members {
			inUnion[idx] = true
		}
	}
	var out []int32
	for idx := range inUnion {
		if t.matchesUser(p.pop.View(int(idx))) {
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("platform: targeting matches no users")
	}
	slices.Sort(out)
	return out, nil
}

// installAudience registers an audience with the given members, in the
// given (arbitrary) order, bypassing PII matching.
func installAudience(p *Platform, members []int32) string {
	ca := &CustomAudience{ID: fmt.Sprintf("ca-%d", len(p.audiences)+1), Size: len(members), members: members}
	p.audiences[ca.ID] = ca
	return ca.ID
}

// TestResolveAudienceMatchesMapAndSortOracle: over randomised overlapping
// audiences whose members arrive in score order (as a lookalike's do) or
// upload order, one to four IDs per ad (repeats included), and targeting
// limits that drop some or all rows, the merge returns exactly the oracle's
// ascending unique list, or its error.
func TestResolveAudienceMatchesMapAndSortOracle(t *testing.T) {
	p, f := newTestPlatform(t, 913)
	rng := rand.New(rand.NewSource(14))
	var ids []string
	for k := 0; k < 8; k++ {
		// Draw from a window of the population so that audiences overlap.
		lo := rng.Intn(f.pop.Len() / 2)
		perm := rng.Perm(f.pop.Len() / 4)[:1+rng.Intn(400)]
		members := make([]int32, len(perm))
		for i, k := range perm {
			members[i] = int32(lo + k)
		}
		ids = append(ids, installAudience(p, members))
	}
	limits := []Targeting{
		{},
		{AgeMin: 30, AgeMax: 50},
		{Genders: []demo.Gender{demo.GenderFemale}},
		{States: []demo.State{demo.StateNC}, AgeMin: 45},
		{AgeMin: 200}, // matches no users
	}
	var dropped, refused int
	for trial := 0; trial < 300; trial++ {
		tg := limits[rng.Intn(len(limits))]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			tg.CustomAudienceIDs = append(tg.CustomAudienceIDs, ids[rng.Intn(len(ids))])
		}
		want, wantErr := oracleResolveAudience(p, &tg)
		got, gotErr := p.resolveAudience(&tg)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d %+v: error %v, oracle %v", trial, tg, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d %+v: %d users, oracle %d", trial, tg, len(got), len(want))
		}
		if gotErr != nil {
			refused++
		} else if all, _ := oracleResolveAudience(p, &Targeting{CustomAudienceIDs: tg.CustomAudienceIDs}); len(got) < len(all) {
			dropped++
		}
	}
	if dropped == 0 || refused == 0 {
		t.Fatalf("trials with rows dropped: %d, refused: %d; the test must cover both", dropped, refused)
	}
	if _, err := p.resolveAudience(&Targeting{CustomAudienceIDs: []string{ids[0], "ca-404"}}); err == nil {
		t.Error("unknown audience: want error")
	}
	// Upload order is what State() serialises; resolving must not disturb it.
	ca := p.audiences[ids[0]]
	if slices.IsSorted(ca.members) {
		t.Error("members were reordered in place (or the fixture drew a sorted audience)")
	}
}

// everyHash is the upload that names every account once, in ID order.
func everyHash(f *fixture) []string {
	hashes := make([]string, f.pop.Len())
	for i := range hashes {
		hashes[i] = f.pop.View(i).PIIKey()
	}
	return hashes
}

// TestCreateCustomAudienceFromKeysEqualsStrings: the []string upload is the
// key upload minus its ill-formed rows — same members in upload order, a
// repeated row matched once, strangers skipped, the same ID sequence and the
// same emitted mutation.
func TestCreateCustomAudienceFromKeysEqualsStrings(t *testing.T) {
	f := sharedFixture(t)
	rng := rand.New(rand.NewSource(15))
	var hashes []string
	var keys []population.PIIKey
	for _, i := range rng.Perm(f.pop.Len())[:3000] {
		h := f.pop.View(i).PIIKey()
		if i%3 == 0 {
			h = strings.ToUpper(h) // hex in either case names the same account
		}
		hashes = append(hashes, h)
		key, ok := population.DecodePIIKey(h)
		if !ok {
			t.Fatalf("account %d has an undecodable key %q", i, h)
		}
		keys = append(keys, key)
		switch i % 7 {
		case 0: // the same row again
			hashes, keys = append(hashes, h), append(keys, key)
		case 1: // a stranger
			hashes, keys = append(hashes, strings.Repeat("0", 63)+"1"), append(keys, population.PIIKey{31: 1})
		case 2: // rows only the []string upload can carry: matched by nobody
			hashes = append(hashes, "", "nope", h[:63], h+"0", h[:63]+"g")
		}
	}
	type result struct {
		state []byte
		log   []Mutation
	}
	upload := func(create func(p *Platform) (*CustomAudience, error)) result {
		p, err := New(testConfig(918), f.pop, f.behave)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		p.SetMutationHook(func(m Mutation) { r.log = append(r.log, m) })
		for k := 1; k <= 2; k++ {
			ca, err := create(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("ca-%d", k); ca.ID != want || ca.Size != 3000 || len(ca.members) != 3000 {
				t.Fatalf("upload %d: audience %s with %d members, want %s with 3000", k, ca.ID, ca.Size, want)
			}
			if slices.IsSorted(ca.members) {
				t.Fatal("members came back sorted, not in upload order")
			}
		}
		if r.state, err = json.Marshal(p.State()); err != nil {
			t.Fatal(err)
		}
		return r
	}
	fromStrings := upload(func(p *Platform) (*CustomAudience, error) { return p.CreateCustomAudience("eq", hashes) })
	fromKeys := upload(func(p *Platform) (*CustomAudience, error) { return p.CreateCustomAudienceFromKeys("eq", keys) })
	if !bytes.Equal(fromStrings.state, fromKeys.state) {
		t.Error("State() differs between the []string and the key upload")
	}
	a, _ := json.Marshal(fromStrings.log)
	b, _ := json.Marshal(fromKeys.log)
	if len(fromStrings.log) != 2 || !bytes.Equal(a, b) {
		t.Errorf("emitted mutations differ (%d vs %d)", len(fromStrings.log), len(fromKeys.log))
	}

	p, _ := newTestPlatform(t, 918)
	for _, c := range []struct {
		name string
		keys []population.PIIKey
	}{{"", keys}, {"empty", nil}} {
		_, errKeys := p.CreateCustomAudienceFromKeys(c.name, c.keys)
		_, errStrings := p.CreateCustomAudience(c.name, hashes[:len(c.keys)])
		if errKeys == nil || errStrings == nil || errKeys.Error() != errStrings.Error() {
			t.Errorf("name %q, %d rows: key upload %v, []string upload %v", c.name, len(c.keys), errKeys, errStrings)
		}
	}
	// Ill-formed rows still make an upload: it just matches nobody.
	if ca, err := p.CreateCustomAudience("ill-formed", []string{"nope"}); err != nil || ca.Size != 0 {
		t.Errorf("upload of one ill-formed hash: %+v, %v", ca, err)
	}
}

// TestUploadDoesNotBlockReaders: the match runs outside the account lock, so
// insights reads keep completing while a large upload is mid-match. When the
// match ran under the write lock, readers got through only in the instant
// before the upload took it — some tens of reads, against tens of thousands.
func TestUploadDoesNotBlockReaders(t *testing.T) {
	p, f := newTestPlatform(t, 917)
	caID := uploadBalancedAudience(t, p, f, 40, 63)
	img := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	ads := createAdSet(t, p, ObjectiveTraffic, caID, []diffAdSpec{{img: img, budget: 200_000}})
	if err := p.RunDay(ads, 917); err != nil {
		t.Fatal(err)
	}
	// Every account 32 times over: a million rows to match.
	once := everyHash(f)
	hashes := make([]string, 0, 32*len(once))
	for len(hashes) < cap(hashes) {
		hashes = append(hashes, once...)
	}

	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		if ca, err := p.CreateCustomAudience("large", hashes); err != nil || ca.Size != len(once) {
			t.Errorf("large upload: %+v, %v", ca, err)
		}
	}()
	<-started
	reads := 0
	for uploading := true; uploading; {
		select {
		case <-done:
			uploading = false
		default:
			if _, err := p.Insights(ads[0]); err != nil {
				t.Fatal(err)
			}
			reads++
		}
	}
	t.Logf("%d insights reads completed during a %d-row upload", reads, len(hashes))
	if reads < 1000 {
		t.Errorf("only %d insights reads completed while %d rows were matched: readers wait for the upload", reads, len(hashes))
	}
}

// BenchmarkAudienceMatch is one audience upload into the platform — PII
// match, dedup, registration — from hex strings (what core, bench/ and the
// decoder fallback hand over) and from raw keys (what the API server's scan
// hands over), at the serve and fleet workloads' upload sizes.
//
//	go test -run '^$' -bench AudienceMatch -benchtime 200x -benchmem ./internal/platform
func BenchmarkAudienceMatch(b *testing.B) {
	f := sharedFixture(b)
	all := everyHash(f)
	for _, n := range []int{2000, 20000} {
		hashes := all[:n]
		keys := make([]population.PIIKey, n)
		for i, h := range hashes {
			keys[i], _ = population.DecodePIIKey(h)
		}
		run := func(name string, create func(p *Platform) (*CustomAudience, error)) {
			b.Run(fmt.Sprintf("%s/hashes=%d", name, n), func(b *testing.B) {
				p, err := New(testConfig(702), f.pop, f.behave)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ca, err := create(p)
					if err != nil || ca.Size != n {
						b.Fatalf("matched %v of %d: %v", ca, n, err)
					}
				}
				perUnit(b, int64(b.N)*int64(n), "ns/hash")
			})
		}
		run("strings", func(p *Platform) (*CustomAudience, error) { return p.CreateCustomAudience("bench", hashes) })
		run("keys", func(p *Platform) (*CustomAudience, error) { return p.CreateCustomAudienceFromKeys("bench", keys) })
	}
}
