package population

import (
	"encoding/hex"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// Columns is the struct-of-arrays user store: one parallel slice per user
// attribute, indexed by dense user ID. The layout exists for scale — a user
// costs ~54 bytes of column data instead of a ~190-byte struct (once the
// heap-allocated hex PII key and the byPII map entry of the old layout are
// counted), and the delivery hot path touches only the columns an auction
// actually reads instead of paging whole user structs through the cache.
//
// ZIP codes are dictionary-encoded: the zip column stores an index into
// zipDict, bounding a 10M-user world's ZIP storage at two bytes per user
// plus one string per distinct ZIP. PII keys are stored as raw 32-byte
// SHA-256 digests; the hex form the advertiser API speaks is materialized
// on demand (UserView.PIIKey).
type Columns struct {
	n        int
	age      []uint8
	gender   []demo.Gender
	race     []demo.Race
	state    []demo.State
	zip      []uint16 // index into zipDict
	zipDict  []string
	activity []float64
	travel   []float64
	pii      [][32]byte
}

// reserve pre-allocates column capacity for about n users.
func (c *Columns) reserve(n int) {
	if n <= 0 {
		return
	}
	c.age = make([]uint8, 0, n)
	c.gender = make([]demo.Gender, 0, n)
	c.race = make([]demo.Race, 0, n)
	c.state = make([]demo.State, 0, n)
	c.zip = make([]uint16, 0, n)
	c.activity = make([]float64, 0, n)
	c.travel = make([]float64, 0, n)
	c.pii = make([][32]byte, 0, n)
}

// appendRow appends one user's attributes to every column.
func (c *Columns) appendRow(age uint8, g demo.Gender, r demo.Race, st demo.State, zip uint16, activity, travel float64, key [32]byte) {
	c.age = append(c.age, age)
	c.gender = append(c.gender, g)
	c.race = append(c.race, r)
	c.state = append(c.state, st)
	c.zip = append(c.zip, zip)
	c.activity = append(c.activity, activity)
	c.travel = append(c.travel, travel)
	c.pii = append(c.pii, key)
	c.n++
}

// compact re-allocates any column whose capacity overshoots its length by
// more than 1/8, so the retained bytes-per-user stays within the documented
// budget regardless of append growth policy.
func (c *Columns) compact() {
	if cap(c.age) > c.n+c.n/8 {
		c.age = append(make([]uint8, 0, c.n), c.age...)
		c.gender = append(make([]demo.Gender, 0, c.n), c.gender...)
		c.race = append(make([]demo.Race, 0, c.n), c.race...)
		c.state = append(make([]demo.State, 0, c.n), c.state...)
		c.zip = append(make([]uint16, 0, c.n), c.zip...)
		c.activity = append(make([]float64, 0, c.n), c.activity...)
		c.travel = append(make([]float64, 0, c.n), c.travel...)
		c.pii = append(make([][32]byte, 0, c.n), c.pii...)
	}
}

// bytes reports the retained column storage, for the memory-budget tests and
// the population benchmark.
func (c *Columns) bytes() int64 {
	b := int64(cap(c.age)) + int64(cap(c.gender)) + int64(cap(c.race)) + int64(cap(c.state)) +
		2*int64(cap(c.zip)) + 8*int64(cap(c.activity)) + 8*int64(cap(c.travel)) + 32*int64(cap(c.pii))
	for _, z := range c.zipDict {
		b += int64(len(z)) + 16 // string bytes + header
	}
	return b
}

// MakeView builds a standalone single-user view backed by its own one-row
// column set — for tests and tools that evaluate per-user models (behaviour,
// eAR) outside a built population. The view's ID is 0 and its PII key is the
// zero digest.
func MakeView(state demo.State, zip string, age int, g demo.Gender, r demo.Race, activity float64) UserView {
	c := &Columns{zipDict: []string{zip}}
	if age < 0 {
		age = 0
	} else if age > 255 {
		age = 255
	}
	c.appendRow(uint8(age), g, r, state, 0, activity, 0, [32]byte{})
	return UserView{c: c, i: 0}
}

// UserView is a cheap value handle onto one user's row of the columns. It is
// two words, never heap-allocates, and is the type the behaviour model and
// the auction hot path read user attributes through.
type UserView struct {
	c *Columns
	i int32
}

// ID returns the dense user ID (the row index).
func (v UserView) ID() int { return int(v.i) }

// Age returns the user's age in years.
func (v UserView) Age() int { return int(v.c.age[v.i]) }

// AgeBucket returns the user's Facebook reporting bucket.
func (v UserView) AgeBucket() demo.AgeBucket { return demo.BucketForAge(int(v.c.age[v.i])) }

// Gender returns the user's gender.
func (v UserView) Gender() demo.Gender { return v.c.gender[v.i] }

// Race returns the user's self-reported race.
func (v UserView) Race() demo.Race { return v.c.race[v.i] }

// State returns the user's home state.
func (v UserView) State() demo.State { return v.c.state[v.i] }

// ZIP returns the user's home ZIP code.
func (v UserView) ZIP() string { return v.c.zipDict[v.c.zip[v.i]] }

// Activity is the user's expected browsing sessions per simulated day; each
// session offers one ad slot.
func (v UserView) Activity() float64 { return v.c.activity[v.i] }

// TravelProb is the per-impression probability the user is currently outside
// their home state (the <1% leakage §3.3 measures).
func (v UserView) TravelProb() float64 { return v.c.travel[v.i] }

// PIIKey returns the hex form of the user's registration-PII hash, the join
// key for Custom Audience matching. The hex string is materialized on demand;
// only the raw 32-byte digest is stored.
func (v UserView) PIIKey() string { return hex.EncodeToString(v.c.pii[v.i][:]) }
