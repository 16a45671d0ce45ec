package voter

import (
	"maps"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
)

func testRegistry(t *testing.T, state demo.State, n int) *Registry {
	t.Helper()
	cfg := DefaultGeneratorConfig(state, 42)
	cfg.NumVoters = n
	reg, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRecordAgeAndBucket(t *testing.T) {
	r := Record{BirthYear: StudyYear - 30}
	if r.Age() != 30 {
		t.Errorf("Age = %d", r.Age())
	}
	if r.AgeBucket() != demo.Age25to34 {
		t.Errorf("AgeBucket = %v", r.AgeBucket())
	}
}

func TestRecordValidate(t *testing.T) {
	good := Record{ID: "FL1", State: demo.StateFL, ZIP: "33101", BirthYear: 1980}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record: %v", err)
	}
	bad := []Record{
		{State: demo.StateFL, ZIP: "33101", BirthYear: 1980},               // no ID
		{ID: "X", State: demo.StateOther, ZIP: "33101", BirthYear: 1980},   // bad state
		{ID: "X", State: demo.StateFL, ZIP: "331", BirthYear: 1980},        // bad ZIP
		{ID: "X", State: demo.StateFL, ZIP: "33101", BirthYear: StudyYear}, // age 0
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d: want error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testRegistry(t, demo.StateFL, 500)
	b := testRegistry(t, demo.StateFL, 500)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across same-seed runs", i)
		}
	}
	if !maps.Equal(a.ZIPPoverty, b.ZIPPoverty) {
		t.Fatal("ZIP poverty table differs across same-seed runs")
	}
}

func TestGenerateMarginals(t *testing.T) {
	reg := testRegistry(t, demo.StateNC, 20000)
	var female, black int
	for i := range reg.Records {
		r := &reg.Records[i]
		if err := r.Validate(); err != nil {
			t.Fatalf("generated invalid record: %v", err)
		}
		if r.Gender == demo.GenderFemale {
			female++
		}
		if r.Race == demo.RaceBlack {
			black++
		}
	}
	n := float64(len(reg.Records))
	if f := float64(female) / n; f < 0.45 || f > 0.55 {
		t.Errorf("female share %v, want ≈ 0.5", f)
	}
	if b := float64(black) / n; b < 0.2 || b > 0.4 {
		t.Errorf("black share %v, want ≈ 0.3", b)
	}
}

func TestGeneratePovertyRaceCorrelation(t *testing.T) {
	// Black voters should live in higher-poverty ZIPs on average — the
	// pattern Appendix A controls for.
	reg := testRegistry(t, demo.StateFL, 20000)
	var wSum, bSum float64
	var wN, bN int
	for i := range reg.Records {
		r := &reg.Records[i]
		p := reg.ZIPPoverty[r.ZIP]
		switch r.Race {
		case demo.RaceWhite:
			wSum += p
			wN++
		case demo.RaceBlack:
			bSum += p
			bN++
		}
	}
	if wN == 0 || bN == 0 {
		t.Fatal("degenerate registry")
	}
	if bSum/float64(bN) <= wSum/float64(wN) {
		t.Errorf("mean poverty: black %v <= white %v; correlation not reproduced",
			bSum/float64(bN), wSum/float64(wN))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GeneratorConfig{State: demo.StateOther, NumVoters: 10, NumZIPs: 2, BlackShare: 0.3}); err == nil {
		t.Error("bad state: want error")
	}
	if _, err := Generate(GeneratorConfig{State: demo.StateFL, NumVoters: 0, NumZIPs: 2, BlackShare: 0.3}); err == nil {
		t.Error("zero voters: want error")
	}
	if _, err := Generate(GeneratorConfig{State: demo.StateFL, NumVoters: 10, NumZIPs: 2, BlackShare: 1.5}); err == nil {
		t.Error("bad black share: want error")
	}
}

// StudyCells enumerates the 6 age buckets × 2 genders × 2 races = 24 cells
// the balanced audiences are stratified over.
func StudyCells() []Cell {
	var out []Cell
	for _, a := range demo.AllAgeBuckets() {
		cells := bucketCells(a)
		out = append(out, cells[:]...)
	}
	return out
}

func TestStudyCellsComplete(t *testing.T) {
	cells := StudyCells()
	if len(cells) != 24 {
		t.Fatalf("StudyCells = %d, want 24", len(cells))
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Errorf("duplicate cell %v", c)
		}
		seen[c] = true
	}
}

func TestCellCounts(t *testing.T) {
	recs := []Record{
		{BirthYear: StudyYear - 20, Gender: demo.GenderMale, Race: demo.RaceWhite},
		{BirthYear: StudyYear - 21, Gender: demo.GenderMale, Race: demo.RaceWhite},
		{BirthYear: StudyYear - 70, Gender: demo.GenderFemale, Race: demo.RaceBlack},
	}
	counts := CellCounts(recs)
	if counts[Cell{Age: demo.Age18to24, Gender: demo.GenderMale, Race: demo.RaceWhite}] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if counts[Cell{Age: demo.Age65Plus, Gender: demo.GenderFemale, Race: demo.RaceBlack}] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestStratifiedSampleBalanced(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 30000)
	rng := rand.New(rand.NewSource(1))
	sample := StratifiedSample(reg.Records, 0, rng)
	if len(sample) == 0 {
		t.Fatal("empty sample")
	}
	if err := VerifyBalance(sample); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedSampleCap(t *testing.T) {
	reg := testRegistry(t, demo.StateNC, 30000)
	rng := rand.New(rand.NewSource(2))
	sample := StratifiedSample(reg.Records, 50, rng)
	counts := CellCounts(sample)
	for c, n := range counts {
		if n > 50 {
			t.Errorf("cell %v has %d > cap", c, n)
		}
	}
	if err := VerifyBalance(sample); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedSampleSkipsOtherRace(t *testing.T) {
	recs := []Record{
		{ID: "1", BirthYear: StudyYear - 30, Gender: demo.GenderMale, Race: demo.RaceOther},
		{ID: "2", BirthYear: StudyYear - 30, Gender: demo.GenderUnknown, Race: demo.RaceWhite},
	}
	sample := StratifiedSample(recs, 0, rand.New(rand.NewSource(3)))
	if len(sample) != 0 {
		t.Errorf("sample should exclude other-race and unknown-gender records, got %d", len(sample))
	}
}

func TestTable1ShapeAndOlderBucketsLarger(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 60000)
	rng := rand.New(rand.NewSource(4))
	sample := StratifiedSample(reg.Records, 0, rng)
	rows := Table1(sample)
	if len(rows) != 6 {
		t.Fatalf("Table1 rows = %d, want 6", len(rows))
	}
	for _, row := range rows {
		if row.Total != 4*row.GroupSize {
			t.Errorf("%s: total %d != 4×group %d", row.Age, row.Total, row.GroupSize)
		}
	}
	// The paper's Table 1 shows older buckets yielding larger groups; our
	// generator reproduces the registry-age skew behind that.
	if rows[5].GroupSize <= rows[0].GroupSize {
		t.Errorf("65+ group (%d) should exceed 18-24 group (%d)", rows[5].GroupSize, rows[0].GroupSize)
	}
}

func TestVerifyBalanceDetectsImbalance(t *testing.T) {
	recs := []Record{
		{BirthYear: StudyYear - 30, Gender: demo.GenderMale, Race: demo.RaceWhite},
		{BirthYear: StudyYear - 30, Gender: demo.GenderMale, Race: demo.RaceWhite},
		{BirthYear: StudyYear - 30, Gender: demo.GenderFemale, Race: demo.RaceWhite},
		{BirthYear: StudyYear - 30, Gender: demo.GenderMale, Race: demo.RaceBlack},
		{BirthYear: StudyYear - 30, Gender: demo.GenderFemale, Race: demo.RaceBlack},
	}
	if err := VerifyBalance(recs); err == nil {
		t.Error("imbalanced sample: want error")
	}
}
