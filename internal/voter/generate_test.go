package voter

import (
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// TestFormattersMatchSprintf pins the two fmt-free formatters in
// Generator.Next to the Sprintf calls they replaced, at every width boundary:
// the last padded serial, the first one %08d no longer pads, and the
// shortest and longest street numbers Next draws.
func TestFormattersMatchSprintf(t *testing.T) {
	for _, prefix := range []string{"FL", "NC"} {
		for _, serial := range []int{1, 9, 10, 99_999_999, 100_000_000, 2_147_483_647} {
			if got, want := voterID(prefix, serial), fmt.Sprintf("%s%08d", prefix, serial); got != want {
				t.Errorf("voterID(%q, %d) = %q, want %q", prefix, serial, got, want)
			}
		}
	}
	for _, num := range []int{1, 9, 10, 9999} {
		for _, street := range streetNames {
			if got, want := streetAddress(num, street), fmt.Sprintf("%d %s", num, street); got != want {
				t.Errorf("streetAddress(%d, %q) = %q, want %q", num, street, got, want)
			}
		}
	}
}

var sinkRecord Record

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
