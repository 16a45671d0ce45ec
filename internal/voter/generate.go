package voter

import (
	"fmt"
	"math"
	"strconv"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/mathrand"
)

// GeneratorConfig controls synthetic registry generation.
type GeneratorConfig struct {
	State demo.State
	Seed  int64
	// NumVoters is the registry size. The default presets keep every
	// stratification cell populated well beyond the sampler's needs.
	NumVoters int
	// NumZIPs is the number of distinct ZIP codes in the state.
	NumZIPs int
	// BlackShare is the overall fraction of Black voters. Real registries
	// are not balanced; the stratified sampler is what produces balance.
	BlackShare float64
}

// povertyRaceCorrelation in [0,1] is how strongly a ZIP's Black population
// share tracks its poverty rate, reproducing the residential-segregation
// pattern Appendix A controls for. 0 would decouple them.
const povertyRaceCorrelation float64 = 0.6

// DefaultGeneratorConfig returns the configuration used by the full-scale
// experiments for the given state.
func DefaultGeneratorConfig(state demo.State, seed int64) GeneratorConfig {
	return GeneratorConfig{
		State:      state,
		Seed:       seed,
		NumVoters:  120000,
		NumZIPs:    120,
		BlackShare: 0.30,
	}
}

type zipInfo struct {
	code       string
	city       string
	poverty    float64
	blackShare float64
}

// Generator produces a synthetic registry one record at a time, so a
// population can be streamed off it without materializing the registry.
// Construction performs the ZIP-table draws; each Draw consumes the per-
// record draws, and Next is Draw followed by formatting. The draw sequence is
// a frozen contract: for the same configuration, NewGenerator+Next yields
// records byte-identical to Generate's registry, record for record. The
// draws come from mathrand.Rand, math/rand's stream as a concrete type, so
// they are the ones rand.New(rand.NewSource(Seed)) makes.
type Generator struct {
	cfg        GeneratorConfig
	rng        *mathrand.Rand
	zips       []zipInfo
	zipPick    zipPicker
	zipPoverty map[string]float64
	i          int
}

// Draw is one generated voter before its ID and street address are
// formatted: every string it holds is a shared table entry, so drawing one
// allocates nothing. Next formats it into a Record.
type Draw struct {
	Serial    int // the ID's number: the voter's 1-based position in the stream
	FirstName string
	LastName  string
	StreetNum int
	Street    string
	City      string
	State     demo.State
	ZIP       string
	Gender    demo.Gender
	Race      demo.Race
	zip       uint16 // the ZIP's position in the generator's table (an Entry's ZIP id)
	BirthYear int
	// The name and street table entries, lowered (nameTable.lower), for
	// AppendPIIMessage.
	firstLower, lastLower, streetLower string
}

// ID formats the voter's state voter ID.
func (d *Draw) ID() string { return FormatID(d.State, d.Serial) }

// AppendAddress appends the voter's street address to b.
func (d *Draw) AppendAddress(b []byte) []byte {
	b = strconv.AppendInt(b, int64(d.StreetNum), 10)
	b = append(b, ' ')
	return append(b, d.Street...)
}

// AppendPIIMessage appends to b the message a voter's PII digest is taken
// over, first|last|address|zip with every field normalised (lowered and
// trimmed) as population.HashPII normalises a record's fields, written from
// the generator's lowered tables: its street number and ZIP are digits, and
// its table entries are lowered once, not per voter. The digest of this
// message is the digest of the voter's Record (FuzzDrawPII).
func (d *Draw) AppendPIIMessage(b []byte) []byte {
	b = append(b, d.firstLower...)
	b = append(b, '|')
	b = append(b, d.lastLower...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(d.StreetNum), 10)
	b = append(b, ' ')
	b = append(b, d.streetLower...)
	b = append(b, '|')
	return append(b, d.ZIP...)
}

// ZIPIndex returns the position of the voter's ZIP in the generator's table
// (an Entry's ZIP id). Positions may share a code.
func (d *Draw) ZIPIndex() int { return int(d.zip) }

// Age returns the voter's age in the study year.
func (d *Draw) Age() int { return StudyYear - d.BirthYear }

// AgeBucket returns the Facebook reporting bucket the voter falls into.
func (d *Draw) AgeBucket() demo.AgeBucket { return demo.BucketForAge(d.Age()) }

// NewGenerator validates the configuration and draws the ZIP table.
// Demographic marginals: gender ≈ 50/50, ages drawn from a voter-file
// distribution that skews older, race by ZIP composition.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.State != demo.StateFL && cfg.State != demo.StateNC {
		return nil, fmt.Errorf("voter: generate for non-study state %v", cfg.State)
	}
	if cfg.NumVoters <= 0 || cfg.NumZIPs <= 0 {
		return nil, fmt.Errorf("voter: need positive NumVoters (%d) and NumZIPs (%d)", cfg.NumVoters, cfg.NumZIPs)
	}
	if cfg.NumZIPs > math.MaxUint16+1 {
		return nil, fmt.Errorf("voter: NumZIPs %d above %d", cfg.NumZIPs, math.MaxUint16+1)
	}
	if cfg.BlackShare <= 0 || cfg.BlackShare >= 1 {
		return nil, fmt.Errorf("voter: BlackShare %v outside (0,1)", cfg.BlackShare)
	}
	rng := mathrand.New(cfg.Seed)

	cities := cityNamesFL
	zipBase := 32000 // FL ZIPs are 32xxx-34xxx
	if cfg.State == demo.StateNC {
		cities = cityNamesNC
		zipBase = 27000 // NC ZIPs are 27xxx-28xxx
	}

	// Build ZIPs. Poverty ~ scaled Beta-like draw; Black share mixes the
	// statewide share with a poverty-linked component.
	zips := make([]zipInfo, cfg.NumZIPs)
	weights := make([]float64, cfg.NumZIPs) // sampling weight (population proxy)
	zipPoverty := make(map[string]float64, cfg.NumZIPs)
	for i := range zips {
		pov := 0.03 + 0.30*math.Pow(rng.Float64(), 1.7) // long right tail, mean ≈ 0.12
		// Map poverty to a z-ish score in [-1, 1] around the median.
		povScore := (pov - 0.12) / 0.15
		if povScore > 1 {
			povScore = 1
		} else if povScore < -1 {
			povScore = -1
		}
		// Logit-normal ZIP composition: residential segregation makes real
		// ZIP race shares highly dispersed (a few percent to near-total),
		// which both Appendix A and the lookalike extension depend on.
		logit := math.Log(cfg.BlackShare/(1-cfg.BlackShare)) +
			1.5*povertyRaceCorrelation*povScore + 0.7*rng.NormFloat64()
		share := 1 / (1 + math.Exp(-logit))
		if share < 0.02 {
			share = 0.02
		} else if share > 0.97 {
			share = 0.97
		}
		zips[i] = zipInfo{
			code:       fmt.Sprintf("%05d", zipBase+rng.Intn(2000)),
			city:       cities[rng.Intn(len(cities))],
			poverty:    pov,
			blackShare: share,
		}
		weights[i] = 0.2 + rng.Float64()
		zipPoverty[zips[i].code] = pov
	}
	return &Generator{
		cfg:        cfg,
		rng:        rng,
		zips:       zips,
		zipPick:    newZIPPicker(weights),
		zipPoverty: zipPoverty,
	}, nil
}

// Draw fills d with the next voter's draws and reports whether there was
// one; it returns false once NumVoters voters have been drawn.
func (g *Generator) Draw(d *Draw) bool {
	if g.i >= g.cfg.NumVoters {
		return false
	}
	g.i++
	rng := g.rng
	zi := g.zipPick.pick(rng.Float64() * g.zipPick.total)
	z := &g.zips[zi]
	gender := demo.GenderMale
	firstNames := &maleFirstNames
	if rng.Float64() < 0.5 {
		gender = demo.GenderFemale
		firstNames = &femaleFirstNames
	}
	race := demo.RaceWhite
	if rng.Float64() < z.blackShare {
		race = demo.RaceBlack
	}
	// The draws below happen in the struct-literal evaluation order of the
	// original one-shot generator (first name, last name, street number,
	// street, age) — reordering any of them would shift every later record.
	firstName, firstLower := firstNames.pick(rng)
	lastName, lastLower := lastNameTable.pick(rng)
	streetNum := 1 + int(rng.Below(streetNumbers))
	street, streetLower := streetTable.pick(rng)
	age := sampleVoterAge(rng)
	*d = Draw{
		Serial:      g.i,
		FirstName:   firstName,
		LastName:    lastName,
		StreetNum:   streetNum,
		Street:      street,
		City:        z.city,
		State:       g.cfg.State,
		ZIP:         z.code,
		Gender:      gender,
		Race:        race,
		zip:         uint16(zi),
		BirthYear:   StudyYear - age,
		firstLower:  firstLower,
		lastLower:   lastLower,
		streetLower: streetLower,
	}
	return true
}

// Next fills rec with the next record and reports whether one was produced;
// it returns false once NumVoters records have been emitted.
func (g *Generator) Next(rec *Record) bool {
	var d Draw
	if !g.Draw(&d) {
		return false
	}
	var addr [48]byte
	*rec = Record{
		ID:        d.ID(),
		FirstName: d.FirstName,
		LastName:  d.LastName,
		Address:   string(d.AppendAddress(addr[:0])),
		City:      d.City,
		State:     d.State,
		ZIP:       d.ZIP,
		Gender:    d.Gender,
		Race:      d.Race,
		BirthYear: d.BirthYear,
	}
	return true
}

// FormatID formats the state voter ID of the serial-th voter a generator
// for the study state st draws, as fmt.Sprintf("%s%08d", st, serial) does
// for its two-letter prefix, with one allocation.
func FormatID(st demo.State, serial int) string {
	prefix := st.String()
	if serial >= 1e8 {
		return prefix + strconv.Itoa(serial) // %08d stops padding here
	}
	var b [10]byte
	copy(b[:2], prefix)
	for i := len(b) - 1; i >= 2; i-- {
		b[i] = byte('0' + serial%10)
		serial /= 10
	}
	return string(b[:])
}

// Generate builds a synthetic registry. Generation is deterministic in the
// seed; it is the one-shot materialization of Generator's stream.
func Generate(cfg GeneratorConfig) (*Registry, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	records := make([]Record, 0, cfg.NumVoters)
	var rec Record
	for g.Next(&rec) {
		records = append(records, rec)
	}
	return &Registry{State: cfg.State, Records: records, ZIPPoverty: g.zipPoverty}, nil
}

// zipPicker is the ZIP draw: a point t uniform in [0, total) picks the first
// ZIP at which t minus the weights so far, subtracted one after another in
// float64, is ≤ 0 (the last ZIP if none is). Each subtraction is monotone in
// t, so that residual is ≤ 0 exactly when t ≤ cut[i], the largest float64
// whose residual after ZIP i is ≤ 0, and the pick is the first i with
// t ≤ cut[i]: the subtract scan's ZIP, bit for bit, found a step or two up
// from a guide table's entry instead of by walking the table.
type zipPicker struct {
	total   float64   // the weights summed in table order: t's range
	weights []float64 // what the scan subtracts, for tables too long for cut
	// cut[i] is the largest t whose residual after ZIP i is ≤ 0; cut never
	// decreases. nil above maxCutZIPs, where the scan itself picks.
	cut []float64
	// guide[j] is the first i whose cut lies in stretch j of the range or
	// above it (see stretch); a t in stretch j exceeds every cut before
	// that, so its search starts there and only steps up.
	guide []int32
	scale float64 // len(guide)/total
}

// maxCutZIPs bounds the tables the cut search runs on: it evaluates an
// i-step subtraction chain ~63 times for each i, so a table of n ZIPs costs
// ~32n² subtractions (~0.5 ms at the 120 ZIPs of the default presets, ~35 ms
// at this bound).
const maxCutZIPs = 1024

// newZIPPicker builds the picker over the ZIP weights, in table order.
func newZIPPicker(weights []float64) zipPicker {
	p := zipPicker{weights: weights}
	for _, w := range weights {
		p.total += w
	}
	if len(weights) > maxCutZIPs {
		return p
	}
	// Bisect over the bit patterns of non-negative float64s, which order as
	// their values do: the residual of t = 0 is ≤ 0 and that of +Inf is not.
	p.cut = make([]float64, len(weights))
	lo := uint64(0)
	for i := range p.cut {
		hi := math.Float64bits(math.Inf(1))
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if residual(math.Float64frombits(mid), weights[:i+1]) <= 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		p.cut[i] = math.Float64frombits(lo) // cut[i+1] ≥ cut[i]: keep lo
	}
	p.guide = make([]int32, len(weights))
	p.scale = float64(len(p.guide)) / p.total
	i := 0
	for j := range p.guide {
		for i < len(p.cut)-1 && p.stretch(p.cut[i]) < j {
			i++
		}
		p.guide[j] = int32(i)
	}
	return p
}

// stretch returns which of len(guide) equal stretches of [0, total) t lies
// in, the last for any t beyond. It never decreases as t grows, so a cut in
// an earlier stretch than t's is below t.
func (p *zipPicker) stretch(t float64) int {
	return min(int(t*p.scale), len(p.guide)-1)
}

// residual is what is left of t after the scan subtracts weights, in order.
func residual(t float64, weights []float64) float64 {
	for _, w := range weights {
		t -= w
	}
	return t
}

// pick returns the ZIP a t in [0, total) draws: the first i with
// t ≤ cut[i], or the last ZIP.
func (p *zipPicker) pick(t float64) int {
	if p.cut == nil {
		for i, w := range p.weights {
			if t -= w; t <= 0 {
				return i
			}
		}
		return len(p.weights) - 1
	}
	i := int(p.guide[p.stretch(t)])
	for i < len(p.cut)-1 && t > p.cut[i] {
		i++
	}
	return i
}

// streetNumbers is the street-number draw's bound: numbers run 1..9999.
var streetNumbers = mathrand.NewBound(9999)

// sampleVoterAge draws an age from a distribution resembling registered-
// voter files: adults only, skewing older. Bucket weights approximate the
// relative registry sizes implied by Table 1 (older buckets are larger).
var voterAgeBuckets = []voterAgeBucket{
	newVoterAgeBucket(demo.Age18to24, 0.11),
	newVoterAgeBucket(demo.Age25to34, 0.15),
	newVoterAgeBucket(demo.Age35to44, 0.15),
	newVoterAgeBucket(demo.Age45to54, 0.17),
	newVoterAgeBucket(demo.Age55to64, 0.19),
	newVoterAgeBucket(demo.Age65Plus, 0.23),
}

// voterAgeBucket is a bucket of sampleVoterAge: its weight, its youngest age
// and its number of ages as a bounded draw.
type voterAgeBucket struct {
	weight float64
	lo     int
	span   mathrand.Bound
}

func newVoterAgeBucket(b demo.AgeBucket, weight float64) voterAgeBucket {
	lo, hi := b.Bounds()
	return voterAgeBucket{weight: weight, lo: lo, span: mathrand.NewBound(int32(hi - lo + 1))}
}

func sampleVoterAge(rng *mathrand.Rand) int {
	t := rng.Float64()
	for i := range voterAgeBuckets {
		b := &voterAgeBuckets[i]
		t -= b.weight
		if t <= 0 {
			return b.lo + int(rng.Below(b.span))
		}
	}
	return 70
}
