package population

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// piiIndex maps raw 32-byte PII digests to dense user IDs without storing
// the keys: slots hold user IDs, and probes compare against the pii column
// the IDs index, which every call takes. Open addressing with linear probing;
// the hash is the digest's first eight bytes (SHA-256 output is uniform, so
// no further mixing is needed). Cost is four bytes per slot at ≤70% load —
// ~6 bytes/user — against the old map[string]int's ~50 bytes/user of
// buckets plus its retained 64-byte hex keys.
//
// A slot also carries a tag. IDs are dense and fewer than the slots, so an
// ID of a 2^shift-slot table fits in the slot's low shift bits; bits
// shift..30 hold the low 31−shift bits of the digest's bytes 8..11 (the slot
// position reads bytes 0..7), and the sign bit marks an empty slot. A probe
// reads pii[id] only where the tag matches the key's: almost every probe of
// a build is a miss, and without the tag each occupied slot on its way
// costs a random 32-byte load from the pii column. Doubling the table
// narrows the tag by a bit, so grow re-places every entry with its new tag.
type piiIndex struct {
	slots []int32 // tag<<shift | user ID; -1 = empty
	shift uint    // log2(len(slots)): the ID's bits
	count int
}

// newPIIIndex sizes the table for about n keys at ≤70% load.
func newPIIIndex(n int) *piiIndex {
	size := 64
	for size*7 < n*10 {
		size <<= 1
	}
	ix := &piiIndex{}
	ix.alloc(size)
	return ix
}

// alloc replaces the table with size empty slots, size a power of two.
func (ix *piiIndex) alloc(size int) {
	ix.slots = make([]int32, size)
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	ix.shift = uint(bits.TrailingZeros(uint(size)))
}

// home returns the slot key's probe sequence starts at.
func (ix *piiIndex) home(key *[32]byte) uint64 {
	return binary.LittleEndian.Uint64(key[:8]) & uint64(len(ix.slots)-1)
}

// tag returns key's tag in the bits above the ID.
func (ix *piiIndex) tag(key *[32]byte) int32 {
	return int32(binary.LittleEndian.Uint32(key[8:12]) << ix.shift & math.MaxInt32)
}

// touch reads key's home slot. Touching a batch of keys before probing
// them puts their cache misses in flight together instead of one behind
// another; the caller keeps the result so the load is not dropped.
func (ix *piiIndex) touch(key *[32]byte) int32 { return ix.slots[ix.home(key)] }

// lookup returns the user ID stored for key, or -1.
func (ix *piiIndex) lookup(key *[32]byte, pii [][32]byte) int32 {
	mask := uint64(len(ix.slots) - 1)
	idMask := int32(mask)
	tag := ix.tag(key)
	for h := ix.home(key); ; h = (h + 1) & mask {
		s := ix.slots[h]
		if s < 0 {
			return -1
		}
		if s&^idMask == tag && pii[s&idMask] == *key {
			return s & idMask
		}
	}
}

// insert stores id under its key pii[id]. The caller has already checked the
// key is absent (Build's dup policy needs the lookup result anyway) and
// inserts IDs densely from 0, so at ≤70% load every ID is below len(slots).
func (ix *piiIndex) insert(id int32, pii [][32]byte) {
	if (ix.count+1)*10 > len(ix.slots)*7 {
		ix.grow(pii)
	}
	ix.place(id, pii)
	ix.count++
}

// place puts id, tagged, in the first free slot of its key's probe sequence.
func (ix *piiIndex) place(id int32, pii [][32]byte) {
	mask := uint64(len(ix.slots) - 1)
	key := &pii[id]
	for h := ix.home(key); ; h = (h + 1) & mask {
		if ix.slots[h] < 0 {
			ix.slots[h] = ix.tag(key) | id
			return
		}
	}
}

// grow doubles the table and re-places every stored ID under its new home
// and its one-bit-narrower tag.
func (ix *piiIndex) grow(pii [][32]byte) {
	old := ix.slots
	idMask := int32(len(old) - 1)
	ix.alloc(len(old) * 2)
	for _, s := range old {
		if s >= 0 {
			ix.place(s&idMask, pii)
		}
	}
}

// bytes reports the table's retained storage.
func (ix *piiIndex) bytes() int64 { return 4 * int64(len(ix.slots)) }
