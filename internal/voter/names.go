package voter

import (
	"strings"

	"github.com/adaudit/impliedidentity/internal/mathrand"
)

// Name pools for the synthetic registries. The specific names carry no
// signal — Custom Audience matching hashes them — but distinct, plausible
// values exercise the PII normalization path the way real extracts would.
var (
	firstNamesMale = []string{
		"James", "Robert", "John", "Michael", "David", "William", "Richard",
		"Joseph", "Thomas", "Charles", "Christopher", "Daniel", "Matthew",
		"Anthony", "Mark", "Donald", "Steven", "Andrew", "Paul", "Joshua",
		"Kenneth", "Kevin", "Brian", "George", "Timothy", "Ronald", "Jason",
		"Edward", "Jeffrey", "Ryan", "Jacob", "Gary", "Nicholas", "Eric",
	}
	firstNamesFemale = []string{
		"Mary", "Patricia", "Jennifer", "Linda", "Elizabeth", "Barbara",
		"Susan", "Jessica", "Sarah", "Karen", "Lisa", "Nancy", "Betty",
		"Sandra", "Margaret", "Ashley", "Kimberly", "Emily", "Donna",
		"Michelle", "Carol", "Amanda", "Melissa", "Deborah", "Stephanie",
		"Dorothy", "Rebecca", "Sharon", "Laura", "Cynthia", "Amy", "Angela",
	}
	lastNames = []string{
		"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
		"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
		"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson",
		"Martin", "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez",
		"Clark", "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen",
		"King", "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores",
		"Green", "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell",
	}
	streetNames = []string{
		"Oak St", "Maple Ave", "Pine Rd", "Cedar Ln", "Elm Dr", "Main St",
		"Church St", "Park Ave", "Lake Dr", "Hill Rd", "River Rd",
		"Sunset Blvd", "Magnolia Way", "Palmetto St", "Cypress Ct",
		"Dogwood Ln", "Azalea Dr", "Bay St", "Gulf Blvd", "Atlantic Ave",
	}
	cityNamesFL = []string{
		"Jacksonville", "Miami", "Tampa", "Orlando", "St. Petersburg",
		"Hialeah", "Tallahassee", "Fort Lauderdale", "Cape Coral",
		"Pembroke Pines", "Gainesville", "Sarasota",
	}
	cityNamesNC = []string{
		"Charlotte", "Raleigh", "Greensboro", "Durham", "Winston-Salem",
		"Fayetteville", "Cary", "Wilmington", "High Point", "Asheville",
		"Concord", "Greenville",
	}
)

// nameTable is a pool the generator draws from, with what a draw of it needs
// prepared once: the pool's size as a bounded draw, and every entry lowered
// as the PII normaliser lowers it, so a draw's PII message is written from
// the table (Draw.AppendPIIMessage) instead of normalised per voter. The
// pools hold ASCII without surrounding spaces, where lowering is all the
// normaliser does (TestLoweredTablesAreNormalized).
type nameTable struct {
	raw, lower []string
	size       mathrand.Bound
}

func newNameTable(raw []string) nameTable {
	t := nameTable{raw: raw, lower: make([]string, len(raw)), size: mathrand.NewBound(int32(len(raw)))}
	for i, s := range raw {
		t.lower[i] = strings.ToLower(s)
	}
	return t
}

// pick draws an entry, rng.Intn(len(raw)) as the one-shot generator drew
// it, and returns it raw and lowered.
func (t *nameTable) pick(rng *mathrand.Rand) (raw, lower string) {
	i := rng.Below(t.size)
	return t.raw[i], t.lower[i]
}

var (
	maleFirstNames   = newNameTable(firstNamesMale)
	femaleFirstNames = newNameTable(firstNamesFemale)
	lastNameTable    = newNameTable(lastNames)
	streetTable      = newNameTable(streetNames)
)
