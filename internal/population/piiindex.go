package population

import "encoding/binary"

// piiIndex maps raw 32-byte PII digests to dense user IDs without storing
// the keys: slots hold user IDs, and probes compare against the pii column
// the IDs index, which every call takes. Open addressing with linear probing;
// the hash is the digest's first eight bytes (SHA-256 output is uniform, so
// no further mixing is needed). Cost is four bytes per slot at ≤70% load —
// ~6 bytes/user — against the old map[string]int's ~50 bytes/user of
// buckets plus its retained 64-byte hex keys.
type piiIndex struct {
	slots []int32 // user IDs; -1 = empty
	count int
}

// newPIIIndex sizes the table for about n keys at ≤70% load.
func newPIIIndex(n int) *piiIndex {
	size := 64
	for size*7 < n*10 {
		size <<= 1
	}
	ix := &piiIndex{slots: make([]int32, size)}
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	return ix
}

func piiHash(key *[32]byte) uint64 {
	return binary.LittleEndian.Uint64(key[:8])
}

// lookup returns the user ID stored for key, or -1.
func (ix *piiIndex) lookup(key *[32]byte, pii [][32]byte) int32 {
	mask := uint64(len(ix.slots) - 1)
	for h := piiHash(key) & mask; ; h = (h + 1) & mask {
		id := ix.slots[h]
		if id < 0 {
			return -1
		}
		if pii[id] == *key {
			return id
		}
	}
}

// insert stores id under its key pii[id]. The caller has already checked the
// key is absent (Build's dup policy needs the lookup result anyway).
func (ix *piiIndex) insert(id int32, pii [][32]byte) {
	if (ix.count+1)*10 > len(ix.slots)*7 {
		ix.grow(pii)
	}
	ix.place(id, pii)
	ix.count++
}

// place puts id in the first free slot of its key's probe sequence.
func (ix *piiIndex) place(id int32, pii [][32]byte) {
	mask := uint64(len(ix.slots) - 1)
	for h := piiHash(&pii[id]) & mask; ; h = (h + 1) & mask {
		if ix.slots[h] < 0 {
			ix.slots[h] = id
			return
		}
	}
}

// grow doubles the table and rehashes every stored ID.
func (ix *piiIndex) grow(pii [][32]byte) {
	old := ix.slots
	ix.slots = make([]int32, len(old)*2)
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	for _, id := range old {
		if id >= 0 {
			ix.place(id, pii)
		}
	}
}

// bytes reports the table's retained storage.
func (ix *piiIndex) bytes() int64 { return 4 * int64(len(ix.slots)) }
