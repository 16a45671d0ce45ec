package voter

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/adaudit/impliedidentity/internal/demo"
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
	// PovertyRaceCorrelation in [0,1] controls how strongly a ZIP's Black
	// population share tracks its poverty rate, reproducing the residential-
	// segregation pattern Appendix A controls for. 0 decouples them.
	PovertyRaceCorrelation float64
}

// DefaultGeneratorConfig returns the configuration used by the full-scale
// experiments for the given state.
func DefaultGeneratorConfig(state demo.State, seed int64) GeneratorConfig {
	return GeneratorConfig{
		State:                  state,
		Seed:                   seed,
		NumVoters:              120000,
		NumZIPs:                120,
		BlackShare:             0.30,
		PovertyRaceCorrelation: 0.6,
	}
}

type zipInfo struct {
	code       string
	city       string
	poverty    float64
	blackShare float64
	weight     float64 // sampling weight (population proxy)
}

// Generator produces a synthetic registry one record at a time, so a
// population can be streamed off it without materializing the registry.
// Construction performs the ZIP-table draws; each Next consumes the per-
// record draws. The draw sequence is a frozen contract: for the same
// configuration, NewGenerator+Next yields records byte-identical to
// Generate's registry, record for record.
type Generator struct {
	cfg         GeneratorConfig
	rng         *rand.Rand
	zips        []zipInfo
	totalWeight float64
	zipPoverty  map[string]float64
	idPrefix    string
	i           int
}

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
	if cfg.BlackShare <= 0 || cfg.BlackShare >= 1 {
		return nil, fmt.Errorf("voter: BlackShare %v outside (0,1)", cfg.BlackShare)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	cities := cityNamesFL
	zipBase := 32000 // FL ZIPs are 32xxx-34xxx
	idPrefix := "FL"
	if cfg.State == demo.StateNC {
		cities = cityNamesNC
		zipBase = 27000 // NC ZIPs are 27xxx-28xxx
		idPrefix = "NC"
	}

	// Build ZIPs. Poverty ~ scaled Beta-like draw; Black share mixes the
	// statewide share with a poverty-linked component.
	zips := make([]zipInfo, cfg.NumZIPs)
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
			1.5*cfg.PovertyRaceCorrelation*povScore + 0.7*rng.NormFloat64()
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
			weight:     0.2 + rng.Float64(),
		}
		zipPoverty[zips[i].code] = pov
	}
	var totalWeight float64
	for i := range zips {
		totalWeight += zips[i].weight
	}
	return &Generator{
		cfg:         cfg,
		rng:         rng,
		zips:        zips,
		totalWeight: totalWeight,
		zipPoverty:  zipPoverty,
		idPrefix:    idPrefix,
	}, nil
}

// Next fills rec with the next record and reports whether one was produced;
// it returns false once NumVoters records have been emitted.
func (g *Generator) Next(rec *Record) bool {
	if g.i >= g.cfg.NumVoters {
		return false
	}
	i := g.i
	g.i++
	rng := g.rng
	z := &g.zips[pickWeighted(rng, g.zips, g.totalWeight)]
	gender := demo.GenderMale
	gc := 'M'
	if rng.Float64() < 0.5 {
		gender = demo.GenderFemale
		gc = 'F'
	}
	race := demo.RaceWhite
	if rng.Float64() < z.blackShare {
		race = demo.RaceBlack
	}
	// The draws below happen in the struct-literal evaluation order of the
	// original one-shot generator (first name, last name, street number,
	// street, age) — reordering any of them would shift every later record.
	firstName := randomFirstName(rng, gc)
	lastName := randomLastName(rng)
	streetNum := 1 + rng.Intn(9999)
	street := randomStreet(rng)
	age := sampleVoterAge(rng)
	*rec = Record{
		ID:        voterID(g.idPrefix, i+1),
		FirstName: firstName,
		LastName:  lastName,
		Address:   streetAddress(streetNum, street),
		City:      z.city,
		State:     g.cfg.State,
		ZIP:       z.code,
		Gender:    gender,
		Race:      race,
		BirthYear: StudyYear - age,
	}
	return true
}

// voterID formats a state voter ID as fmt.Sprintf("%s%08d", prefix, serial)
// does, for the two-letter state prefixes NewGenerator assigns: one
// allocation, where Sprintf boxes both arguments first.
func voterID(prefix string, serial int) string {
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

// streetAddress formats fmt.Sprintf("%d %s", num, street) with one
// allocation.
func streetAddress(num int, street string) string {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(num), 10)
	b = append(b, ' ')
	b = append(b, street...)
	return string(b)
}

// ZIPPoverty returns the generated ZIP→poverty table (shared, do not
// mutate).
func (g *Generator) ZIPPoverty() map[string]float64 { return g.zipPoverty }

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

func pickWeighted(rng *rand.Rand, zips []zipInfo, total float64) int {
	t := rng.Float64() * total
	for i := range zips {
		t -= zips[i].weight
		if t <= 0 {
			return i
		}
	}
	return len(zips) - 1
}

// sampleVoterAge draws an age from a distribution resembling registered-
// voter files: adults only, skewing older. Bucket weights approximate the
// relative registry sizes implied by Table 1 (older buckets are larger).
var voterAgeBucketWeights = []struct {
	bucket demo.AgeBucket
	weight float64
}{
	{demo.Age18to24, 0.11},
	{demo.Age25to34, 0.15},
	{demo.Age35to44, 0.15},
	{demo.Age45to54, 0.17},
	{demo.Age55to64, 0.19},
	{demo.Age65Plus, 0.23},
}

func sampleVoterAge(rng *rand.Rand) int {
	t := rng.Float64()
	for _, w := range voterAgeBucketWeights {
		t -= w.weight
		if t <= 0 {
			lo, hi := w.bucket.Bounds()
			return lo + rng.Intn(hi-lo+1)
		}
	}
	return 70
}
