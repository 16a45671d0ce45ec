package population

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// builder is the shared core of Build and Stream: it applies the account-
// match model to voter records one at a time, parks each matched candidate in
// a fixed-size pending buffer, and on flush probes the buffered candidates
// for duplicates before appending the kept ones to the columns. A probe is a
// cache miss into a table of millions of slots and another into the pii
// column; taken one per record each waits out its own misses behind a
// microsecond of formatting and hashing, while a buffer's worth run back to
// back.
//
// The RNG draw order per record is a frozen contract (match draw, then the
// activity noise draw, then — with no further draws — the PII hash), identical
// to the struct-era builder's. flush walks the pending rows in record order
// and only a kept row has its age range-checked, its ZIP interned, its row
// appended and its key indexed, so dense IDs, ZIP-dictionary order and the
// first error are the one-at-a-time builder's at every buffer size.
type builder struct {
	cfg     Config
	rng     *rand.Rand
	cols    Columns
	pending []candidate // matched, hashed, not yet probed; cap is the batch size
	index   *piiIndex   // over cols.pii
	zipIdx  map[string]uint16
	scratch []byte
}

// candidate is a voter that passed the match draw: everything a user row
// needs, plus the voter ID an out-of-range age is reported under.
type candidate struct {
	key      [32]byte
	voterID  string
	zip      string
	age      int
	gender   demo.Gender
	race     demo.Race
	state    demo.State
	activity float64
}

// probeBlock is the most candidates Build and Stream park between flushes:
// a run of back-to-back probes in a buffer (~22 KB) that stays in cache.
const probeBlock = 256

// newBuilder sizes the builder for an expected voter count and a pending
// buffer of batch candidates.
func newBuilder(cfg Config, expectedVoters, batch int) *builder {
	b := &builder{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make([]candidate, 0, batch),
		zipIdx:  make(map[string]uint16, 256),
		scratch: make([]byte, 0, 128),
	}
	est := int(float64(expectedVoters) * cfg.BaseMatchRate)
	b.index = newPIIIndex(est)
	b.cols.reserve(est + est/32)
	return b
}

// consume applies the match model to one voter record, flushing when the
// pending buffer fills.
func (b *builder) consume(rec *voter.Record) error {
	if b.rng.Float64() > b.cfg.BaseMatchRate*matchRateFactor(rec) {
		return nil
	}
	activity := b.cfg.MeanSessions * activityFactor(rec) * lognormalish(b.rng)
	if rec.State == demo.StateFL {
		activity *= b.cfg.FLActivityBoost
	}
	var key [32]byte
	key, b.scratch = hashPIIRaw(rec.FirstName, rec.LastName, rec.Address, rec.ZIP, b.scratch)
	b.pending = append(b.pending, candidate{
		key: key, voterID: rec.ID, zip: rec.ZIP, age: rec.Age(),
		gender: rec.Gender, race: rec.Race, state: rec.State, activity: activity,
	})
	if len(b.pending) == cap(b.pending) {
		return b.flush()
	}
	return nil
}

// zipIndex interns a ZIP code into the dictionary.
func (b *builder) zipIndex(zip string) (uint16, error) {
	if i, ok := b.zipIdx[zip]; ok {
		return i, nil
	}
	if len(b.cols.zipDict) > math.MaxUint16 {
		return 0, fmt.Errorf("population: more than %d distinct ZIP codes", math.MaxUint16+1)
	}
	i := uint16(len(b.cols.zipDict))
	b.cols.zipDict = append(b.cols.zipDict, zip)
	b.zipIdx[zip] = i
	return i, nil
}

// flush probes the pending candidates in record order and appends the kept
// ones to the columns.
func (b *builder) flush() error {
	pending := b.pending
	b.pending = b.pending[:0]
	for i := range pending {
		if err := b.keep(&pending[i]); err != nil {
			return err
		}
	}
	return nil
}

// keep appends c to the columns as the next user unless its key is already
// there.
func (b *builder) keep(c *candidate) error {
	if b.index.lookup(&c.key, b.cols.pii) >= 0 {
		// PII collision (same name+address): the platform would merge or
		// reject; we keep the first account. The dropped record consumed its
		// RNG draws and nothing else, exactly as in the struct-era builder.
		return nil
	}
	if c.age < 0 || c.age > math.MaxUint8 {
		return fmt.Errorf("population: voter %s age %d outside column range", c.voterID, c.age)
	}
	zi, err := b.zipIndex(c.zip)
	if err != nil {
		return err
	}
	id := int32(b.cols.n)
	b.cols.appendRow(uint8(c.age), c.gender, c.race, c.state, zi, c.activity, b.cfg.TravelProb, c.key)
	b.index.insert(id, b.cols.pii)
	return nil
}

// finish seals the columns. The dup-detection index is dropped here: it is
// pure acceleration over the pii column, the first lookup rebuilds it,
// and the steady-state population then pays only for its columns.
func (b *builder) finish() (*Population, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	if b.cols.n == 0 {
		return nil, fmt.Errorf("population: no users matched")
	}
	b.cols.compact()
	return &Population{cols: b.cols}, nil
}

// Stream builds the population straight from generator configurations,
// at most chunkSize matched voters parked at a time (and never more than
// probeBlock), without materializing voter registries or intermediate user
// objects — the construction path for multi-million-user worlds. For
// identical Config and generator inputs its output is byte-identical to Build
// over voter.Generate's registries, at every chunk size (the stream property
// suite pins chunk sizes 1, 7, and 1024).
//
// Stream does not retain registries, so worlds built this way cannot serve
// audits that read the registry itself (stratified sampling); it exists for
// delivery-scale benchmarking and population-level measurements.
func Stream(cfg Config, chunkSize int, gens ...voter.GeneratorConfig) (*Population, error) {
	cfg.setDefaults()
	if chunkSize <= 0 {
		return nil, fmt.Errorf("population: chunk size must be positive, got %d", chunkSize)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("population: no generator configs")
	}
	if cfg.BaseMatchRate <= 0 || cfg.BaseMatchRate > 1 {
		return nil, fmt.Errorf("population: BaseMatchRate %v outside (0,1]", cfg.BaseMatchRate)
	}
	voters := 0
	for _, gc := range gens {
		voters += gc.NumVoters
	}
	b := newBuilder(cfg, voters, min(chunkSize, probeBlock))
	var rec voter.Record
	for _, gc := range gens {
		g, err := voter.NewGenerator(gc)
		if err != nil {
			return nil, err
		}
		for g.Next(&rec) {
			if err := b.consume(&rec); err != nil {
				return nil, err
			}
		}
	}
	return b.finish()
}
