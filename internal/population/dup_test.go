package population

import (
	"fmt"
	"slices"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// The legacy-oracle suite's 7 000 voters over ~240 ZIPs never collide, so the
// tests here are what pins the duplicate branch of the park-then-probe
// builder to legacyBuild: a generated world dense enough to really produce
// duplicates, and a hand-built registry that places one at every position
// relative to a flush.

// zipOrder is the ZIP dictionary the one-at-a-time builder ends with: the
// kept users' ZIP strings in order of first appearance.
func zipOrder(users []legacyUser) []string {
	var order []string
	for i := range users {
		if !slices.Contains(order, users[i].ZIP) {
			order = append(order, users[i].ZIP)
		}
	}
	return order
}

func assertZIPDict(t *testing.T, pop *Population, want []legacyUser) {
	t.Helper()
	if order := zipOrder(want); !slices.Equal(pop.cols.zipDict, order) {
		t.Fatalf("ZIP dictionary %q, one-at-a-time order %q", pop.cols.zipDict, order)
	}
}

// TestGeneratedDuplicatesMatchLegacyOracle crowds 300 000 voters into one
// ZIP, where name × address collisions are a matter of course, and holds
// Build and Stream to the oracle there.
func TestGeneratedDuplicatesMatchLegacyOracle(t *testing.T) {
	gc := voter.DefaultGeneratorConfig(demo.StateFL, 61)
	gc.NumVoters = 300_000
	gc.NumZIPs = 1
	reg, err := voter.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 601}
	want := legacyBuild(cfg, reg)

	// The match draws do not read the PII, so the same registry with every
	// address made unique matches the same voters and drops none: the
	// difference is the number of duplicates the real one dropped.
	unique := &voter.Registry{State: reg.State, Records: slices.Clone(reg.Records), ZIPPoverty: reg.ZIPPoverty}
	for i := range unique.Records {
		unique.Records[i].Address += fmt.Sprint(" #", i)
	}
	if dups := len(legacyBuild(cfg, unique)) - len(want); dups < 10 {
		t.Fatalf("the crowded world dropped %d duplicates, want at least 10: this test no longer tests anything", dups)
	}

	pop, err := Build(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLegacy(t, pop, want)
	for _, chunk := range []int{1, 7, 1024} {
		pop, err := Stream(cfg, chunk, gc)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesLegacy(t, pop, want)
	}
}

// buildBatched drives the builder over records with a pending buffer of
// batch candidates, as Build does with its fixed one.
func buildBatched(cfg Config, batch int, records []voter.Record) (*Population, error) {
	cfg.setDefaults()
	b := newBuilder(cfg, len(records), batch)
	for i := range records {
		if err := b.consume(&records[i]); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// TestDuplicatePlacementMatchesLegacyOracle: every voter below passes the
// match draw (a match rate of 1 times the under-45 factors is above any
// draw), so which records are duplicates, and where they fall relative to a
// flush at batch sizes 1, 2, 3 and 4096, is exactly as written.
func TestDuplicatePlacementMatchesLegacyOracle(t *testing.T) {
	cfg := Config{Seed: 602, BaseMatchRate: 1}
	rec := func(id, first, zip string, birthYear int) voter.Record {
		return voter.Record{
			ID: id, FirstName: first, LastName: "Lee", Address: "1 Oak St", City: "Tampa",
			State: demo.StateFL, ZIP: zip, Gender: demo.GenderFemale, Race: demo.RaceBlack, BirthYear: birthYear,
		}
	}
	records := []voter.Record{
		rec("V01", "Ann", "32001", 1990),
		rec("V02", "Bea", "32002", 1991),
		rec("V03", "ann", "32001", 1992), // dup of V01: in V01's batch at 3+, across a flush at 1 and 2
		rec("V04", "Cat", "32002", 1993),
		rec("V05", "Cat", "32002", 1994),  // second copy
		rec("V06", "CAT ", "32002", 1995), // third copy
		rec("V07", "Dee", "32003", 1996),
		rec("V08", "Dee", " 32003", 1997), // dup whose raw ZIP is a string the dictionary has not seen
		rec("V09", "Bea", " 32002", 2030), // dup with a new ZIP string and an age no column holds
		rec("V10", "Eve", " 32004", 1998), // kept, with padding: the dictionary stores the raw string
		rec("V11", "Fay", "32004", 1999),
		rec("V12", "Ann", "32001", 2000), // dup as the very last record
	}
	want := legacyBuild(cfg, &voter.Registry{State: demo.StateFL, Records: records})
	if len(want) != 6 {
		t.Fatalf("oracle kept %d of the hand-built records, want 6", len(want))
	}
	bad := append(slices.Clone(records),
		rec("V13", "Dee", "32003", 2031), // dup, age out of range: dropped, not reported
		rec("V14", "Gil", "32005", 2032), // kept, age out of range: the error
		rec("V15", "Hal", "32005", 2033),
	)
	const wantErr = "population: voter V14 age -10 outside column range"

	for _, batch := range []int{1, 2, 3, 4096} {
		pop, err := buildBatched(cfg, batch, records)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		assertMatchesLegacy(t, pop, want)
		assertZIPDict(t, pop, want)

		if _, err := buildBatched(cfg, batch, bad); err == nil || err.Error() != wantErr {
			t.Errorf("batch %d: error %v, want %q", batch, err, wantErr)
		}
	}
	pop, err := Build(cfg, &voter.Registry{State: demo.StateFL, Records: records})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLegacy(t, pop, want)
	assertZIPDict(t, pop, want)
}
