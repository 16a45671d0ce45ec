package population

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/mathrand"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// builder is the shared core of Build and Stream: it applies the account-
// match model to voter records one at a time, parks each matched candidate in
// a fixed-size pending buffer, and on flush probes the buffered candidates
// for duplicates before appending the kept ones to the columns. A probe is a
// cache miss into a table of millions of slots (the pii column is read only
// where a slot's tag matches the key's, see piiIndex); taken one per record
// each waits out its own miss behind the next record's draws and hash, while
// flush's touch pass puts a buffer's worth of misses in flight together.
//
// The RNG draw order per record is a frozen contract (match draw, then the
// activity noise draw, then — with no further draws — the PII hash), identical
// to the struct-era builder's. flush walks the pending rows in record order
// and only a kept row has its age range-checked, its ZIP interned, its row
// appended and its key indexed, so dense IDs, ZIP-dictionary order and the
// first error are the one-at-a-time builder's at every buffer size.
type builder struct {
	cfg     Config
	rng     *mathrand.Rand // math/rand's stream for cfg.Seed, as a concrete type
	cols    Columns
	pending []candidate // matched, hashed, not yet probed; cap is the batch size
	index   *piiIndex   // over cols.pii; finish hands it to the population
	zipIdx  map[string]uint16
	// zipAt maps a generator ZIP position to its dictionary id, or -1 before
	// the position's first kept row: each generator's table is a run of it,
	// from the base zipTable returned (candidate.zipAt).
	zipAt   []int32
	scratch []byte // the PII message being hashed, reused voter to voter
	touched int32  // what flush's touch pass read, kept so its loads are not dropped
}

// candidate is a voter that passed the match draw: everything a user row
// needs, plus what names the voter should its age be out of range — the
// registry record it came from, or, for a generator draw, its serial (the
// state is the row's). An ID string is formatted only for that error.
type candidate struct {
	key      [32]byte
	rec      *voter.Record
	serial   int
	zip      string
	age      int
	gender   demo.Gender
	race     demo.Race
	state    demo.State
	zipAt    int32 // the ZIP's b.zipAt slot for a generator draw, -1 for a record
	activity float64
}

// voterID is the ID the candidate's voter is reported under.
func (c *candidate) voterID() string {
	if c.rec != nil {
		return c.rec.ID
	}
	return voter.FormatID(c.state, c.serial)
}

// probeBlock is the most candidates Build and Stream park between flushes:
// a run of back-to-back probes in a buffer (~22 KB) that stays in cache.
const probeBlock = 256

// newBuilder sizes the builder for an expected voter count and a pending
// buffer of batch candidates.
func newBuilder(cfg Config, expectedVoters, batch int) *builder {
	b := &builder{
		cfg:     cfg,
		rng:     mathrand.New(cfg.Seed),
		pending: make([]candidate, 0, batch),
		zipIdx:  make(map[string]uint16, 256),
		scratch: make([]byte, 0, 128),
	}
	est := int(float64(expectedVoters) * cfg.BaseMatchRate)
	b.index = newPIIIndex(est)
	b.cols.reserve(est + est/32)
	b.cols.travel = cfg.TravelProb
	return b
}

// consume applies the match model to one registry record, flushing when
// the pending buffer fills. A record can hold any text, so its PII is
// normalised field by field (hashPIIRaw) in the builder's buffer.
func (b *builder) consume(rec *voter.Record) error {
	activity, ok := b.account(rec, rec.State)
	if !ok {
		return nil
	}
	c := candidate{
		rec: rec, zip: rec.ZIP, zipAt: -1, age: rec.Age(),
		gender: rec.Gender, race: rec.Race, state: rec.State, activity: activity,
	}
	c.key, b.scratch = hashPIIRaw(rec.FirstName, rec.LastName, rec.Address, rec.ZIP, b.scratch)
	return b.queue(c)
}

// consumeDraw is consume for a generator draw, which is never formatted:
// its ID is not made, and its PII is hashed from the message the draw
// writes already normalised (hashDraw).
func (b *builder) consumeDraw(d *voter.Draw, zips int32) error {
	activity, ok := b.account(d, d.State)
	if !ok {
		return nil
	}
	var key [32]byte
	key, b.scratch = hashDraw(d, b.scratch)
	return b.queueDraw(d, &key, zips, activity)
}

// consumeHashed is consumeDraw for a draw whose PII digest the caller has
// already computed (hashDraw): a matched voter takes key instead of being
// hashed again.
func (b *builder) consumeHashed(d *voter.Draw, key *[32]byte, zips int32) error {
	activity, ok := b.account(d, d.State)
	if !ok {
		return nil
	}
	return b.queueDraw(d, key, zips, activity)
}

// queueDraw parks a matched generator draw under its digest. zips is the
// base zipTable returned for the draw's generator.
func (b *builder) queueDraw(d *voter.Draw, key *[32]byte, zips int32, activity float64) error {
	return b.queue(candidate{
		key: *key, serial: d.Serial, zip: d.ZIP, zipAt: zips + int32(d.ZIPIndex()), age: d.Age(),
		gender: d.Gender, race: d.Race, state: d.State, activity: activity,
	})
}

// hashDraw computes a draw's PII digest over the message it writes into buf
// (voter.Draw.AppendPIIMessage), which is the normalised message hashPIIRaw
// would build from the voter's record, and returns buf for reuse.
func hashDraw(d *voter.Draw, buf []byte) ([32]byte, []byte) {
	buf = d.AppendPIIMessage(buf[:0])
	return sha256.Sum256(buf), buf
}

// account makes a voter's draws: whether it has an account and, if it has,
// its activity.
func (b *builder) account(v aged, st demo.State) (activity float64, ok bool) {
	if b.rng.Float64() > b.cfg.BaseMatchRate*matchRateFactor(v) {
		return 0, false
	}
	activity = meanSessions * activityFactor(v) * lognormalish(b.rng.NormFloat64())
	if st == demo.StateFL {
		activity *= b.cfg.FLActivityBoost
	}
	return activity, true
}

// queue parks a hashed candidate, flushing when the pending buffer fills.
func (b *builder) queue(c candidate) error {
	b.pending = append(b.pending, c)
	if len(b.pending) == cap(b.pending) {
		return b.flush()
	}
	return nil
}

// zipTable makes room in zipAt for a generator of n ZIPs and returns the base
// of its positions.
func (b *builder) zipTable(n int) int32 {
	base := len(b.zipAt)
	b.zipAt = slices.Grow(b.zipAt, n)
	for range n {
		b.zipAt = append(b.zipAt, -1)
	}
	return int32(base)
}

// candidateZIP is the dictionary id of c's ZIP. A generator draw's position
// is interned once, by code on its first kept row; positions that share a
// code share the id, so the dictionary's order is the one interning every
// row by its code gives.
func (b *builder) candidateZIP(c *candidate) (uint16, error) {
	if c.zipAt < 0 {
		return b.zipIndex(c.zip)
	}
	if id := b.zipAt[c.zipAt]; id >= 0 {
		return uint16(id), nil
	}
	id, err := b.zipIndex(c.zip)
	if err == nil {
		b.zipAt[c.zipAt] = int32(id)
	}
	return id, err
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
// ones to the columns. A touch pass reads every candidate's home slot first,
// so the buffer's cache misses into the index overlap instead of each
// waiting behind the last; the probes then mostly find their slots cached.
func (b *builder) flush() error {
	pending := b.pending
	b.pending = b.pending[:0]
	var touched int32
	for i := range pending {
		touched |= b.index.touch(&pending[i].key)
	}
	b.touched = touched
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
		return fmt.Errorf("population: voter %s age %d outside column range", c.voterID(), c.age)
	}
	zi, err := b.candidateZIP(c)
	if err != nil {
		return err
	}
	id := int32(b.cols.n)
	b.cols.appendRow(uint8(c.age), c.gender, c.race, c.state, zi, c.activity, c.key)
	b.index.insert(id, b.cols.pii)
	return nil
}

// finish seals the columns and hands the dup-detection index to the
// population as its PII index: it already maps every kept key to its row,
// and compact keeps the rows in order, so its IDs stay valid.
func (b *builder) finish() (*Population, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	if b.cols.n == 0 {
		return nil, fmt.Errorf("population: no users matched")
	}
	b.cols.compact()
	return &Population{cols: b.cols, index: b.index}, nil
}

// streamBuilder checks the inputs of a build from generator configurations
// and sizes its builder for their voters, batch candidates parked at a time.
func streamBuilder(cfg Config, batch int, gens []voter.GeneratorConfig) (*builder, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("population: no generator configs")
	}
	voters := 0
	for _, gc := range gens {
		voters += gc.NumVoters
	}
	return newBuilder(cfg, voters, batch), nil
}

// Stream builds the population straight from generator configurations,
// at most chunkSize matched voters parked at a time (and never more than
// probeBlock), without materializing voter registries or intermediate user
// objects — the construction path for multi-million-user worlds. For
// identical Config and generator inputs its output is byte-identical to Build
// over voter.Generate's registries, at every chunk size (the stream property
// suite pins chunk sizes 1, 7, and 1024).
//
// Stream keeps nothing of the voters it does not match, so worlds built
// this way cannot serve audits that sample voters (stratified sampling);
// BuildIndexed is Stream for those.
func Stream(cfg Config, chunkSize int, gens ...voter.GeneratorConfig) (*Population, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("population: chunk size must be positive, got %d", chunkSize)
	}
	b, err := streamBuilder(cfg, min(chunkSize, probeBlock), gens)
	if err != nil {
		return nil, err
	}
	var d voter.Draw
	for _, gc := range gens {
		g, err := voter.NewGenerator(gc)
		if err != nil {
			return nil, err
		}
		zips := b.zipTable(gc.NumZIPs)
		for g.Draw(&d) {
			if err := b.consumeDraw(&d, zips); err != nil {
				return nil, err
			}
		}
	}
	return b.finish()
}

// BuildIndexed builds the population as Stream does and, in the same pass,
// one voter.Index per generator configuration, in the order given: the
// world an audit samples from. Every voter is drawn once and hashed once,
// into a reused buffer; the index stores the digest, and a matched voter's
// user takes it instead of hashing again. The population is byte-identical
// to Build's over voter.Generate's registries, and entry i of an index is
// record i of the registry.
func BuildIndexed(cfg Config, gens ...voter.GeneratorConfig) (*Population, []*voter.Index, error) {
	b, err := streamBuilder(cfg, probeBlock, gens)
	if err != nil {
		return nil, nil, err
	}
	indexes := make([]*voter.Index, 0, len(gens))
	var (
		d   voter.Draw
		key [32]byte
	)
	for _, gc := range gens {
		g, err := voter.NewGenerator(gc)
		if err != nil {
			return nil, nil, fmt.Errorf("population: generating the %s voter registry: %w", gc.State, err)
		}
		ix := g.NewIndex()
		zips := b.zipTable(gc.NumZIPs)
		for g.Draw(&d) {
			key, b.scratch = hashDraw(&d, b.scratch)
			ix.Add(&d, &key)
			if err := b.consumeHashed(&d, &key, zips); err != nil {
				return nil, nil, err
			}
		}
		indexes = append(indexes, ix)
	}
	pop, err := b.finish()
	if err != nil {
		return nil, nil, err
	}
	return pop, indexes, nil
}
