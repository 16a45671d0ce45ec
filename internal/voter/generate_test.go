package voter

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/mathrand"
)

// TestFormattersMatchSprintf pins the two fmt-free formatters Next uses to the Sprintf calls they replaced, at every width boundary:
// the last padded serial, the first one %08d no longer pads, and the
// shortest and longest street numbers Draw makes.
func TestFormattersMatchSprintf(t *testing.T) {
	for _, st := range []demo.State{demo.StateFL, demo.StateNC} {
		for _, serial := range []int{1, 9, 10, 99_999_999, 100_000_000, 2_147_483_647} {
			if got, want := FormatID(st, serial), fmt.Sprintf("%s%08d", st, serial); got != want {
				t.Errorf("FormatID(%v, %d) = %q, want %q", st, serial, got, want)
			}
		}
	}
	buf := []byte("kept ")
	for _, num := range []int{1, 9, 10, 9999} {
		for _, street := range streetNames {
			d := Draw{StreetNum: num, Street: street}
			if got, want := string(d.AppendAddress(buf)), "kept "+fmt.Sprintf("%d %s", num, street); got != want {
				t.Errorf("AppendAddress(%d, %q) = %q, want %q", num, street, got, want)
			}
		}
	}
}

// TestLoweredTablesAreNormalized: every lowered table entry a draw's PII
// message is written from is its raw entry as the PII normaliser leaves it,
// strings.ToLower over strings.TrimSpace, and the tables pair up entry for
// entry.
func TestLoweredTablesAreNormalized(t *testing.T) {
	for name, tab := range map[string]*nameTable{
		"male first names": &maleFirstNames, "female first names": &femaleFirstNames,
		"last names": &lastNameTable, "streets": &streetTable,
	} {
		if len(tab.lower) != len(tab.raw) {
			t.Errorf("%s: %d lowered entries for %d raw", name, len(tab.lower), len(tab.raw))
			continue
		}
		for i, raw := range tab.raw {
			if want := strings.ToLower(strings.TrimSpace(raw)); tab.lower[i] != want {
				t.Errorf("%s[%d]: lowered %q, want %q", name, i, tab.lower[i], want)
			}
		}
	}
}

// TestGeneratorStreamPinned pins the first 50 000 records of two default
// generators to digests recorded before Next was split into Draw and
// Record, so a change to either cannot move a record unnoticed.
func TestGeneratorStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		state demo.State
		seed  int64
		want  string
	}{
		{demo.StateFL, 1, "5966563795ce2e8bc6d27f7884fd19c65f36b9f29074fcbc2a49197788385b3b"},
		{demo.StateNC, 2, "70ae39c083487f197478ffa887af01f6119543e24a8bfa9d7e2a598b5af9fb32"},
	} {
		g, err := NewGenerator(DefaultGeneratorConfig(tc.state, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec Record
		for i := 0; i < 50_000 && g.Next(&rec); i++ {
			fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%s|%d|%d|%d\n", rec.ID, rec.FirstName, rec.LastName,
				rec.Address, rec.City, rec.State, rec.ZIP, rec.Gender, rec.Race, rec.BirthYear)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%v seed %d: first 50 000 records digest %s, want %s", tc.state, tc.seed, got, tc.want)
		}
	}
}

// TestDrawDoesNotAllocate: a draw holds table strings only; the ID and the
// address cost an allocation each only when Next formats them.
func TestDrawDoesNotAllocate(t *testing.T) {
	g, err := NewGenerator(DefaultGeneratorConfig(demo.StateFL, 3))
	if err != nil {
		t.Fatal(err)
	}
	var d Draw
	if allocs := testing.AllocsPerRun(1000, func() { g.Draw(&d) }); allocs != 0 {
		t.Errorf("Draw allocated %v times per voter, want 0", allocs)
	}
}

// scanZIP is the definition of the ZIP draw: subtract the weights from t
// one after another and stop at the first ZIP that takes the residual to
// ≤ 0, the last ZIP if none does.
func scanZIP(weights []float64, t float64) int {
	for i, w := range weights {
		t -= w
		if t <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TestZIPPickIsTheSubtractScan holds the cut-table pick to the subtract
// scan: a million draws from each of ten generators of the default presets,
// fewer on generated tables of 1, 2, 7 and maxCutZIPs ZIPs; and, at every
// cut[i] and the next float64 above it, the pick is the scan's ZIP and
// cut[i] is the boundary (the scan picks at most i there, more just above).
func TestZIPPickIsTheSubtractScan(t *testing.T) {
	type table struct {
		zips, draws int
	}
	var tables []table
	for seed := 0; seed < 10; seed++ {
		tables = append(tables, table{120, 1_000_000})
	}
	tables = append(tables, table{1, 1000}, table{2, 100_000}, table{7, 100_000}, table{maxCutZIPs, 20_000})
	for k, tc := range tables {
		state := []demo.State{demo.StateFL, demo.StateNC}[k%2]
		cfg := DefaultGeneratorConfig(state, int64(71+k))
		cfg.NumZIPs = tc.zips
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &g.zipPick
		if len(p.cut) != tc.zips {
			t.Fatalf("table %d: %d cuts for %d ZIPs", k, len(p.cut), tc.zips)
		}
		rng := mathrand.New(int64(k))
		for n := 0; n < tc.draws; n++ {
			x := rng.Float64() * p.total
			if got, want := p.pick(x), scanZIP(p.weights, x); got != want {
				t.Fatalf("table %d draw %d: t=%v picks ZIP %d, the scan %d", k, n, x, got, want)
			}
		}
		for i, c := range p.cut {
			above := math.Nextafter(c, math.Inf(1))
			for _, x := range []float64{c, above} {
				if got, want := p.pick(x), scanZIP(p.weights, x); got != want {
					t.Fatalf("table %d: t=%v (cut %d) picks ZIP %d, the scan %d", k, x, i, got, want)
				}
			}
			if scanZIP(p.weights, c) > i || (i < len(p.cut)-1 && scanZIP(p.weights, above) <= i) {
				t.Fatalf("table %d: cut[%d]=%v is not where the scan passes ZIP %d", k, i, c, i)
			}
		}
	}
}

// TestLongZIPTableScans: above maxCutZIPs the picker keeps no cut table and
// picks by the scan itself.
func TestLongZIPTableScans(t *testing.T) {
	cfg := DefaultGeneratorConfig(demo.StateFL, 5)
	cfg.NumZIPs = maxCutZIPs + 1
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &g.zipPick
	if p.cut != nil {
		t.Fatalf("%d ZIPs built a cut table", cfg.NumZIPs)
	}
	rng := mathrand.New(5)
	for n := 0; n < 10_000; n++ {
		x := rng.Float64() * p.total
		if got, want := p.pick(x), scanZIP(p.weights, x); got != want {
			t.Fatalf("draw %d: t=%v picks ZIP %d, the scan %d", n, x, got, want)
		}
	}
}

var (
	sinkRecord Record
	sinkDraw   Draw
)

// BenchmarkGeneratorNext measures one generated record: the frozen draw
// sequence plus the two strings (ID, address) a record owns.
func BenchmarkGeneratorNext(b *testing.B) {
	cfg := DefaultGeneratorConfig(demo.StateFL, 1)
	cfg.NumVoters = b.N
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for g.Next(&sinkRecord) {
	}
}

// BenchmarkGeneratorDraw measures the frozen draw sequence alone, what
// population.Stream consumes per voter.
func BenchmarkGeneratorDraw(b *testing.B) {
	cfg := DefaultGeneratorConfig(demo.StateFL, 1)
	cfg.NumVoters = b.N
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for g.Draw(&sinkDraw) {
	}
}
