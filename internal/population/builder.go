package population

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// builder is the shared core of Build and Stream: it applies the account-
// match model to voter records one at a time and appends accepted users to
// the columns. Build feeds it materialized registries and appends straight
// into the final columns; Stream feeds it a generator and buffers rows in a
// fixed-size chunk that flushes by bulk append, so the only per-record
// allocations are the columns themselves.
//
// The RNG draw order per record is a frozen contract (match draw, then the
// activity noise draw, then — with no further draws — the PII hash and dup
// check), identical to the struct-era builder's.
type builder struct {
	cfg     Config
	rng     *rand.Rand
	cols    Columns // flushed rows; owns the ZIP dictionary
	chunk   Columns // pending rows when chunked; zip indexes point into cols.zipDict
	chunked bool
	total   int32 // rows across cols + chunk = the next user ID
	index   *piiIndex
	at      keyAt
	zipIdx  map[string]uint16
	scratch []byte
}

// newBuilder sizes the builder for an expected voter count. chunkSize 0
// appends directly to the final columns (Build); positive values buffer
// that many rows per flush (Stream).
func newBuilder(cfg Config, expectedVoters, chunkSize int) *builder {
	b := &builder{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		zipIdx:  make(map[string]uint16, 256),
		scratch: make([]byte, 0, 128),
	}
	b.at = b.keyAt
	est := int(float64(expectedVoters) * cfg.BaseMatchRate)
	b.index = newPIIIndex(est)
	b.cols.reserve(est + est/32)
	if chunkSize > 0 {
		b.chunked = true
		b.chunk.reserve(chunkSize)
	}
	return b
}

// keyAt resolves a user ID to its PII digest across the flushed columns and
// the pending chunk.
func (b *builder) keyAt(id int32) *[32]byte {
	if int(id) < b.cols.n {
		return &b.cols.pii[id]
	}
	return &b.chunk.pii[int(id)-b.cols.n]
}

// consume applies the match model to one voter record.
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
	if b.index.lookup(&key, b.at) >= 0 {
		// PII collision (same name+address): the platform would merge or
		// reject; we keep the first account. The RNG draws above already
		// happened, exactly as in the struct-era builder.
		return nil
	}
	age := rec.Age()
	if age < 0 || age > math.MaxUint8 {
		return fmt.Errorf("population: voter %s age %d outside column range", rec.ID, age)
	}
	zi, err := b.zipIndex(rec.ZIP)
	if err != nil {
		return err
	}
	dst := &b.cols
	if b.chunked {
		dst = &b.chunk
	}
	dst.appendRow(uint8(age), rec.Gender, rec.Race, rec.State, zi, activity, b.cfg.TravelProb, key)
	b.index.insert(&key, b.total, b.at)
	b.total++
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

// flush bulk-appends the pending chunk into the final columns.
func (b *builder) flush() {
	if b.chunk.n == 0 {
		return
	}
	b.cols.appendColumns(&b.chunk)
	b.chunk.resetRows()
}

// finish seals the columns. The dup-detection index is dropped here: it is
// pure acceleration over the pii column, the first lookup rebuilds it,
// and the steady-state population then pays only for its columns.
func (b *builder) finish() (*Population, error) {
	b.flush()
	if b.cols.n == 0 {
		return nil, fmt.Errorf("population: no users matched")
	}
	b.cols.compact()
	return &Population{cols: b.cols}, nil
}

// Stream builds the population straight from generator configurations,
// chunkSize accepted users at a time, without materializing voter registries
// or intermediate user objects — the construction path for multi-million-
// user worlds. For identical Config and generator inputs its output is
// byte-identical to Build over voter.Generate's registries, at every chunk
// size (the stream property suite pins chunk sizes 1, 7, and 1024).
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
	b := newBuilder(cfg, voters, chunkSize)
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
			if b.chunk.n >= chunkSize {
				b.flush()
			}
		}
	}
	return b.finish()
}
