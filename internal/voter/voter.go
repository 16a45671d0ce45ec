// Package voter implements the public-voter-record substrate the paper's
// methodology is built on (§3.2-§3.3): registry records with self-reported
// race and gender, the Florida and North Carolina extract file formats, a
// synthetic registry generator (the real files are public records, but we
// cannot ship them; the generator produces registries with realistic
// marginals and the poverty/race correlation Appendix A depends on), the
// compact index a world keeps of a generated registry instead of its
// records, the stratified sampler that builds balanced target audiences
// (Table 1), and the poverty-matched subsampler from Appendix A.
package voter

import (
	"fmt"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// StudyYear is the reference year for converting birth years to ages; the
// paper's campaigns ran in 2022.
const StudyYear = 2022

// Record is one voter-registration record, carrying the fields the audit
// methodology consumes: PII for Custom Audience matching (name + address)
// and the self-reported demographics used for stratification and, for race,
// as measurement ground truth.
type Record struct {
	ID        string // state voter ID
	FirstName string
	LastName  string
	Address   string // street address
	City      string
	State     demo.State
	ZIP       string
	Gender    demo.Gender
	Race      demo.Race
	BirthYear int
}

// Age returns the voter's age in the study year.
func (r *Record) Age() int { return StudyYear - r.BirthYear }

// AgeBucket returns the Facebook reporting bucket the voter falls into.
func (r *Record) AgeBucket() demo.AgeBucket { return demo.BucketForAge(r.Age()) }

// Validate performs basic integrity checks on a parsed record.
func (r *Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("voter: record missing ID")
	}
	if r.State != demo.StateFL && r.State != demo.StateNC {
		return fmt.Errorf("voter %s: state %v is not a study state", r.ID, r.State)
	}
	if age := r.Age(); age < 18 || age > 120 {
		return fmt.Errorf("voter %s: implausible age %d", r.ID, age)
	}
	if len(r.ZIP) != 5 {
		return fmt.Errorf("voter %s: malformed ZIP %q", r.ID, r.ZIP)
	}
	return nil
}

// Registry is a set of voter records from one state together with the ZIP-
// level poverty rates used in the Appendix A analysis.
type Registry struct {
	State   demo.State
	Records []Record
	// ZIPPoverty maps ZIP code to the fraction of the ZIP's residents below
	// the poverty line (the proxy Appendix A uses for economic status).
	ZIPPoverty map[string]float64
}

// Cell identifies one stratification cell: the intersection of age bucket,
// gender, and race within which Table 1 requires equal counts.
type Cell struct {
	Age    demo.AgeBucket
	Gender demo.Gender
	Race   demo.Race
}

// String formats the cell for diagnostics.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.Age, c.Gender, c.Race)
}

// Cell returns the voter's stratification cell.
func (r *Record) Cell() Cell { return Cell{Age: r.AgeBucket(), Gender: r.Gender, Race: r.Race} }

// Voter is a voter as the samplers read it: a parsed or generated registry
// record, or the entry a world's index keeps.
type Voter interface{ Record | Entry }

// voterRef is a pointer to a Voter, through which the samplers read it.
type voterRef[T Voter] interface {
	*T
	Cell() Cell
}

// CellCounts tallies voters per stratification cell.
func CellCounts[T Voter, P voterRef[T]](voters []T) map[Cell]int {
	out := map[Cell]int{}
	for i := range voters {
		out[P(&voters[i]).Cell()]++
	}
	return out
}

// bucketCells returns an age bucket's four gender×race cells — the cells
// Table 1 balances — in the order the samplers visit them.
func bucketCells(age demo.AgeBucket) [4]Cell {
	return [4]Cell{
		{Age: age, Gender: demo.GenderMale, Race: demo.RaceWhite},
		{Age: age, Gender: demo.GenderMale, Race: demo.RaceBlack},
		{Age: age, Gender: demo.GenderFemale, Race: demo.RaceWhite},
		{Age: age, Gender: demo.GenderFemale, Race: demo.RaceBlack},
	}
}
