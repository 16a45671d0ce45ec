package voter

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
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
