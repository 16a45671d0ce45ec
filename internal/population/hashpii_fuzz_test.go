package population

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// naiveHashPII is the PII hash as the upload side computed it before it was
// put on hashPIIRaw — strings.ToLower, strings.TrimSpace, string
// concatenation — kept verbatim as the oracle the shared normalizer is
// fuzzed against.
func naiveHashPII(first, last, address, zip string) string {
	norm := func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	h := sha256.Sum256([]byte(norm(first) + "|" + norm(last) + "|" + norm(address) + "|" + norm(zip)))
	return hex.EncodeToString(h[:])
}

// FuzzHashPII pins the PII normalizer both sides of Custom Audience matching
// stand on (HashPII for the advertiser upload, hashPIIRaw for the account
// records: ASCII bytes lower-cased in place, then rune by rune from the
// first non-ASCII byte, into a reused scratch buffer) to the independent
// naiveHashPII. If they ever disagree on any input — unicode case pairs,
// interior whitespace, empty fields, invalid UTF-8 — hashes computed outside
// this program stop matching, so the property is fuzzed, not just
// spot-checked.
func FuzzHashPII(f *testing.F) {
	f.Add("John", "Smith", "1 Oak St", "33101")
	f.Add(" john ", "SMITH", "1  oak  st", "33101")    // interior whitespace preserved
	f.Add("", "", "", "")                              // all empty
	f.Add("Åsa", "Öberg", "Ünter den Linden", "27000") // non-ASCII case folding
	f.Add("ΣΟΦΙΑ", "ΠΑΠΑΣ", "ΟΔΟΣ 1", "32001")         // Greek final sigma
	f.Add("İstanbul", "IŞIK", "yol", "32002")          // dotted capital I
	f.Add("a\tb", "c\nd", "e\u00a0f", "g h")           // exotic whitespace; the interior NBSP is kept
	f.Add("\xff\xfe", "ok", "\x80", "33")              // invalid UTF-8
	f.Add("ＦＵＬＬＷＩＤＴＨ", "ｎａｍｅ", "１２３", "34000")         // fullwidth forms
	// The byte loop hands over to the rune loop mid-string:
	f.Add("Ab\u212a", "Ab\u212aCd", "\u212aAb", "33101")             // KELVIN SIGN lower-cases to ASCII k
	f.Add("Mc\u01c5", "\u01c5", "12 \u01c5 ST", "1")                 // title-case digraph
	f.Add("Ab\xffC", "AB\xc3", "\xe2\x82", "Z\x80Z")                 // invalid UTF-8 after ASCII
	f.Add("\u00a0Ann\u0085", "LEE\u00a0", "\u00a0\u0085", "\u00857") // NBSP / NEL padding is trimmed
	f.Add("JOHN", "SMITH", "1 OAK ST", "FL33101")                    // all-ASCII upper case
	f.Add("A", "", "B", "")                                          // some fields empty
	f.Fuzz(func(t *testing.T, first, last, address, zip string) {
		want := naiveHashPII(first, last, address, zip)
		if got := HashPII(first, last, address, zip); got != want {
			t.Fatalf("HashPII diverged from the naive oracle:\n got %s\nwant %s\ninput %q %q %q %q",
				got, want, first, last, address, zip)
		}
		// A scratch buffer too small for the input, and one that already
		// holds other bytes, must not change the digest.
		scratch := append(make([]byte, 0, 4), "xyz"...)
		raw, scratch := hashPIIRaw(first, last, address, zip, scratch)
		if got := hex.EncodeToString(raw[:]); got != want {
			t.Fatalf("hashPIIRaw diverged from the naive oracle:\n got %s\nwant %s\ninput %q %q %q %q",
				got, want, first, last, address, zip)
		}
		if again, _ := hashPIIRaw(first, last, address, zip, scratch); again != raw {
			t.Fatal("hashPIIRaw not deterministic under scratch reuse")
		}
	})
}

// TestHashPIIAllocatesOnce: the upload-side hash builds nothing but the hex
// string it returns.
func TestHashPIIAllocatesOnce(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { HashPII("John", "Smith", "1 Oak St", "33101") }); allocs != 1 {
		t.Errorf("HashPII allocated %v times, want 1", allocs)
	}
}
