package population

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/mathrand"
)

// TestPIIIndexMatchesMapOracle inserts keys into a piiIndex as the builder
// does (lookup, then insert the absent ones under the next dense ID) and
// checks every lookup against a map. The keys come in families that share
// their first twelve bytes — one home slot and one tag at every table size
// — and differ after them, families whose tags differ only in bits 17..24
// of bytes 8..11, which the table keeps up to 2^13 slots and drops at 2^14,
// and plain random keys; 6 000 of them take the table from 64 slots to
// 2^14 through eight doublings, each narrowing the tag. After each
// doubling, and at the end, every key inserted so far is found under its ID
// and keys never inserted, from every family, are absent.
func TestPIIIndexMatchesMapOracle(t *testing.T) {
	rng := mathrand.New(7)
	randomKey := func() (k [32]byte) {
		for i := 0; i < 32; i += 8 {
			binary.LittleEndian.PutUint64(k[i:], rng.Uint64())
		}
		return k
	}
	// sameTag varies only bytes 12..31: same home slot, same tag.
	sameTag := func(base [32]byte) [32]byte {
		k := randomKey()
		copy(k[:12], base[:12])
		return k
	}
	// highTag flips some of bits 17..24 of bytes 8..11: a tag of its own
	// while the table has at most 2^13 slots, its base's tag from 2^14 on.
	highTag := func(base [32]byte) [32]byte {
		k := sameTag(base)
		tag := binary.LittleEndian.Uint32(k[8:]) ^ uint32(1+rng.Intn(255))<<17
		binary.LittleEndian.PutUint32(k[8:], tag)
		return k
	}
	families := []func([32]byte) [32]byte{sameTag, highTag}
	var bases [][32]byte
	for i := 0; i < 40; i++ {
		bases = append(bases, randomKey())
	}
	next := func() [32]byte {
		switch n := rng.Intn(4); n {
		case 0, 1:
			return families[n](bases[rng.Intn(len(bases))])
		case 2:
			return bases[rng.Intn(len(bases))] // an exact repeat, once a base is in
		default:
			return randomKey()
		}
	}

	ix := newPIIIndex(0)
	var pii [][32]byte
	oracle := map[[32]byte]int32{}
	check := func(when string) {
		t.Helper()
		for k, id := range oracle {
			if got := ix.lookup(&k, pii); got != id {
				t.Fatalf("%s: key %x found as %d, inserted as %d", when, k[:16], got, id)
			}
		}
		for i := 0; i < 500; i++ {
			var k [32]byte
			switch i % 3 {
			case 0:
				k = sameTag(bases[i%len(bases)])
			case 1:
				k = highTag(bases[i%len(bases)])
			default:
				k = randomKey()
			}
			if _, in := oracle[k]; in {
				continue
			}
			if got := ix.lookup(&k, pii); got != -1 {
				t.Fatalf("%s: absent key %x found as %d", when, k[:16], got)
			}
		}
	}
	doublings := 0
	for len(pii) < 6000 {
		k := next()
		want, in := oracle[k]
		if !in {
			want = -1
		}
		if got := ix.lookup(&k, pii); got != want {
			t.Fatalf("after %d inserts: key %x found as %d, the map has %d", len(pii), k[:16], got, want)
		}
		if in {
			continue
		}
		id := int32(len(pii))
		pii = append(pii, k)
		oracle[k] = id
		size := len(ix.slots)
		ix.insert(id, pii)
		if len(ix.slots) != size {
			doublings++
			check(fmt.Sprintf("after a doubling to %d slots", len(ix.slots)))
		}
	}
	check("at the end")
	if doublings != 8 || len(ix.slots) != 1<<14 {
		t.Errorf("the table doubled %d times to %d slots, want 8 to %d", doublings, len(ix.slots), 1<<14)
	}
	if ix.count != len(oracle) {
		t.Errorf("index counts %d keys, the map %d", ix.count, len(oracle))
	}
}
