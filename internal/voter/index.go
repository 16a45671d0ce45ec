package voter

import (
	"encoding/hex"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// Index is what a world keeps of a generated registry: one fixed-size Entry
// per voter, in registry order, and the ZIP poverty table the entries point
// into. It holds everything the audit reads of a voter — the PII digest an
// upload carries, the demographics the samplers stratify by, and the ZIP
// poverty Appendix A matches on — and none of the six strings of a Record.
// An index is filled in the pass that draws the voters (NewIndex, Add), so
// building one costs no second pass over the generator.
type Index struct {
	State   demo.State
	Entries []Entry
	poverty []float64 // by ZIP id: the registry's ZIPPoverty of the ZIP's code
}

// Entry is one voter of an Index. Layout: the 32-byte digest, the 2-byte ZIP
// id, then three 1-byte fields — 37 bytes, 38 with the struct's 2-byte
// alignment, against ~150 bytes for a Record and its strings.
type Entry struct {
	// Digest is the SHA-256 of the voter's normalized PII, the key the
	// population matches uploads on; Hash hex-encodes it.
	Digest [32]byte
	ZIP    uint16 // the voter's ZIP, as an id into its index's poverty table
	Age    uint8  // in the study year; a generated voter is at most 95
	Gender demo.Gender
	Race   demo.Race
}

// Cell returns the voter's stratification cell.
func (e *Entry) Cell() Cell {
	return Cell{Age: demo.BucketForAge(int(e.Age)), Gender: e.Gender, Race: e.Race}
}

// Hash returns the hex-encoded PII digest: the hash an advertiser uploads
// for the voter, as population.HashPII formats it.
func (e *Entry) Hash() string { return hex.EncodeToString(e.Digest[:]) }

// NewIndex returns an empty index for the voters g draws, with room for all
// of them. Several ZIPs of a generated state may share a code; an entry's
// poverty is then the one the registry's ZIPPoverty map holds for the code.
func (g *Generator) NewIndex() *Index {
	poverty := make([]float64, len(g.zips))
	for i := range g.zips {
		poverty[i] = g.zipPoverty[g.zips[i].code]
	}
	return &Index{State: g.cfg.State, Entries: make([]Entry, 0, g.cfg.NumVoters), poverty: poverty}
}

// Add appends the entry of d, a draw of the generator the index was made
// by, with its PII digest.
func (ix *Index) Add(d *Draw, digest *[32]byte) {
	ix.Entries = append(ix.Entries, Entry{
		Digest: *digest,
		ZIP:    d.zip,
		Age:    uint8(d.Age()),
		Gender: d.Gender,
		Race:   d.Race,
	})
}

// Poverty returns the poverty rate of e's ZIP; e must be an entry of ix.
func (ix *Index) Poverty(e *Entry) float64 { return ix.poverty[e.ZIP] }
