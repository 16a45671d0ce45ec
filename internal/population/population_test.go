package population

import (
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func testRegistry(t *testing.T, state demo.State, n int) *voter.Registry {
	t.Helper()
	cfg := voter.DefaultGeneratorConfig(state, 7)
	cfg.NumVoters = n
	reg, err := voter.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestHashPIINormalization(t *testing.T) {
	a := HashPII("John", "Smith", "1 Oak St", "33101")
	b := HashPII(" john ", "SMITH", "1 oak st", "33101")
	if a != b {
		t.Error("hash must be case/whitespace insensitive")
	}
	c := HashPII("Jane", "Smith", "1 Oak St", "33101")
	if a == c {
		t.Error("different people must hash differently")
	}
	if len(a) != 64 {
		t.Errorf("hash length %d", len(a))
	}
}

func TestBuildMatchesSubsetOfVoters(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 5000)
	nc := testRegistry(t, demo.StateNC, 5000)
	pop, err := Build(Config{Seed: 1}, fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Len() == 0 || pop.Len() >= 10000 {
		t.Fatalf("population size %d", pop.Len())
	}
	// Roughly the base match rate should survive.
	frac := float64(pop.Len()) / 10000
	if frac < 0.45 || frac > 0.85 {
		t.Errorf("match fraction %v", frac)
	}
	for i := 0; i < pop.Len(); i++ {
		u := pop.View(i)
		if u.ID() != i {
			t.Fatalf("user %d reports ID %d", i, u.ID())
		}
		if u.Activity() <= 0 {
			t.Fatalf("user %d activity %v", i, u.Activity())
		}
		if len(u.PIIKey()) != 64 {
			t.Fatalf("user %d PII key %q", i, u.PIIKey())
		}
	}
}

func TestBuildLookupPII(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 2000)
	pop, err := Build(Config{Seed: 2}, fl)
	if err != nil {
		t.Fatal(err)
	}
	// Every built user must be findable by the hash of some voter's PII.
	found := 0
	for i := range fl.Records {
		r := &fl.Records[i]
		key := HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
		if u, ok := pop.LookupPII(key); ok {
			found++
			if u.State() != demo.StateFL {
				t.Errorf("matched user in wrong state %v", u.State())
			}
		}
	}
	if found != pop.Len() {
		t.Errorf("found %d voters matching, population has %d", found, pop.Len())
	}
	if _, ok := pop.LookupPII("nope"); ok {
		t.Error("bogus key should not match")
	}
}

func TestBuildMatchRateDeclinesWithAge(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 60000)
	pop, err := Build(Config{Seed: 3}, fl)
	if err != nil {
		t.Fatal(err)
	}
	voterCount := map[demo.AgeBucket]int{}
	for i := range fl.Records {
		voterCount[fl.Records[i].AgeBucket()]++
	}
	userCount := map[demo.AgeBucket]int{}
	for i := 0; i < pop.Len(); i++ {
		userCount[pop.View(i).AgeBucket()]++
	}
	young := float64(userCount[demo.Age18to24]) / float64(voterCount[demo.Age18to24])
	old := float64(userCount[demo.Age65Plus]) / float64(voterCount[demo.Age65Plus])
	if young <= old {
		t.Errorf("match rate young %v <= old %v", young, old)
	}
}

func TestBuildActivityRisesWithAge(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 60000)
	pop, err := Build(Config{Seed: 4}, fl)
	if err != nil {
		t.Fatal(err)
	}
	var youngSum, oldSum float64
	var youngN, oldN int
	for i := 0; i < pop.Len(); i++ {
		u := pop.View(i)
		switch u.AgeBucket() {
		case demo.Age18to24:
			youngSum += u.Activity()
			youngN++
		case demo.Age65Plus:
			oldSum += u.Activity()
			oldN++
		}
	}
	if oldSum/float64(oldN) <= youngSum/float64(youngN) {
		t.Errorf("activity old %v <= young %v", oldSum/float64(oldN), youngSum/float64(youngN))
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{Seed: 1}); err == nil {
		t.Error("no registries: want error")
	}
	fl := testRegistry(t, demo.StateFL, 100)
	if _, err := Build(Config{Seed: 1, BaseMatchRate: 1.5}, fl); err == nil {
		t.Error("bad match rate: want error")
	}
}

func TestBuildDeterministic(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 3000)
	a, err := Build(Config{Seed: 5}, fl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Seed: 5}, fl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !sameUser(a.View(i), b.View(i)) {
			t.Fatal("same-seed populations differ")
		}
	}
}

// sameUser compares every column of two user views field by field.
func sameUser(a, b UserView) bool {
	return a.ID() == b.ID() && a.Age() == b.Age() && a.Gender() == b.Gender() &&
		a.Race() == b.Race() && a.State() == b.State() && a.ZIP() == b.ZIP() &&
		a.Activity() == b.Activity() && a.TravelProb() == b.TravelProb() &&
		a.PIIKey() == b.PIIKey()
}

func TestHashPIIProperty(t *testing.T) {
	// Property: hashing is deterministic and normalization-invariant, and
	// any single-field change alters the hash.
	f := func(a, b, c, d string) bool {
		h1 := HashPII(a, b, c, d)
		h2 := HashPII(" "+a+" ", b, c, d)
		if h1 != h2 {
			return false
		}
		return HashPII(a+"x", b, c, d) != h1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLookupPIIConcurrentFirstUse: the builder drops the PII index when
// construction finishes and LookupPII rebuilds it lazily on first use. The
// rebuild must be safe and correct when the first uses arrive concurrently.
func TestLookupPIIConcurrentFirstUse(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 3000)
	pop, err := Build(Config{Seed: 6}, fl)
	if err != nil {
		t.Fatal(err)
	}
	n := pop.Len()
	if n > 256 {
		n = 256
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = pop.View(i).PIIKey()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, key := range keys {
				u, ok := pop.LookupPII(key)
				if !ok || u.ID() != i {
					errs <- fmt.Errorf("key %d resolved to (%v, %v)", i, u, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecodePIIKeyMatchesHex: the upload path's hex decoder accepts exactly
// what encoding/hex accepts at the key length, for strings and byte slices.
func TestDecodePIIKeyMatchesHex(t *testing.T) {
	full := strings.Repeat("0123456789abcdefABCDEF", 3)[:64]
	cases := []string{
		full, strings.ToUpper(full), strings.Repeat("f", 64), strings.Repeat("0", 64),
		"", "nope", full[:63], full + "0", full[:63] + "g", "G" + full[1:], full[:32] + " " + full[33:],
		full[:10] + "\x00" + full[11:], full[:10] + "\xff" + full[11:], full[:62] + "0x",
	}
	for _, c := range cases {
		var want PIIKey
		_, err := hex.Decode(want[:], []byte(c))
		wantOK := err == nil && len(c) == 64
		got, ok := DecodePIIKey(c)
		gotB, okB := DecodePIIKey([]byte(c))
		if ok != wantOK || okB != wantOK {
			t.Errorf("%q: ok=%v/%v, encoding/hex says %v", c, ok, okB, wantOK)
			continue
		}
		if ok && (got != want || gotB != want) {
			t.Errorf("%q: decoded %x / %x, want %x", c, got, gotB, want)
		}
	}
}

// TestMatchPII: the batch match is LookupPII per key with the upload's
// conventions — key order kept, a user once, strangers skipped.
func TestMatchPII(t *testing.T) {
	fl := testRegistry(t, demo.StateFL, 2000)
	pop, err := Build(Config{Seed: 2}, fl)
	if err != nil {
		t.Fatal(err)
	}
	var keys []PIIKey
	var want []int32
	seen := map[int]bool{}
	for round := 0; round < 2; round++ { // second round: every key again
		for i := len(fl.Records) - 1; i >= 0; i-- { // not ID order
			r := &fl.Records[i]
			hash := HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
			key, ok := DecodePIIKey(hash)
			if !ok {
				t.Fatalf("HashPII produced an undecodable hash %q", hash)
			}
			keys = append(keys, key)
			if u, ok := pop.LookupPII(hash); ok && !seen[u.ID()] {
				seen[u.ID()] = true
				want = append(want, int32(u.ID()))
			}
		}
		keys = append(keys, PIIKey{byte(round)}) // a stranger
	}
	got := pop.MatchPII(keys)
	if len(want) != pop.Len() || !slices.Equal(got, want) {
		t.Fatalf("MatchPII returned %d users, want %d (population %d); first %v vs %v",
			len(got), len(want), pop.Len(), got[:min(3, len(got))], want[:min(3, len(want))])
	}
	if got := pop.MatchPII(nil); len(got) != 0 {
		t.Errorf("no keys matched %v", got)
	}
}
