package voter

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// StratifiedSample selects voters from a registry such that, within each age
// bucket, every gender×race cell contributes exactly the same number of
// records (§3.2: "we select voters such that the number of men and women is
// equal, as is the number of Black and white voters, and as are the
// intersections of race and gender"). The per-bucket group size is the size
// of the rarest cell, optionally capped by maxPerCell (0 = uncapped).
// Sampling within a cell is uniform without replacement and deterministic in
// rng.
func StratifiedSample(records []Record, maxPerCell int, rng *rand.Rand) []Record {
	byCell := map[Cell][]int{}
	for i := range records {
		r := &records[i]
		if r.Race != demo.RaceWhite && r.Race != demo.RaceBlack {
			continue // the audit only balances the two measured race groups
		}
		if r.Gender == demo.GenderUnknown {
			continue
		}
		c := Cell{Age: r.AgeBucket(), Gender: r.Gender, Race: r.Race}
		byCell[c] = append(byCell[c], i)
	}
	var out []Record
	for _, bucket := range demo.AllAgeBuckets() {
		k := math.MaxInt
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				n := len(byCell[Cell{Age: bucket, Gender: g, Race: rc}])
				if n < k {
					k = n
				}
			}
		}
		if k == math.MaxInt || k == 0 {
			continue
		}
		if maxPerCell > 0 && k > maxPerCell {
			k = maxPerCell
		}
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				idx := byCell[Cell{Age: bucket, Gender: g, Race: rc}]
				for _, j := range rng.Perm(len(idx))[:k] {
					out = append(out, records[idx[j]])
				}
			}
		}
	}
	return out
}

// Table1Row is one row of the paper's Table 1: the per-cell group size and
// the total target-audience size within an age range.
type Table1Row struct {
	Age       demo.AgeBucket
	GroupSize int // voters per race×gender cell
	Total     int // total audience in the age range
}

// Table1 summarizes a stratified sample the way the paper's Table 1 does.
// It returns one row per age bucket present in the sample.
func Table1(sample []Record) []Table1Row {
	counts := CellCounts(sample)
	var rows []Table1Row
	for _, bucket := range demo.AllAgeBuckets() {
		var total, group int
		first := true
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				n := counts[Cell{Age: bucket, Gender: g, Race: rc}]
				total += n
				if first {
					group = n
					first = false
				}
			}
		}
		if total > 0 {
			rows = append(rows, Table1Row{Age: bucket, GroupSize: group, Total: total})
		}
	}
	return rows
}

// VerifyBalance checks the Table 1 invariant: within every age bucket all
// four gender×race cells have identical counts.
func VerifyBalance(sample []Record) error {
	counts := CellCounts(sample)
	for _, bucket := range demo.AllAgeBuckets() {
		want := -1
		for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
			for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
				n := counts[Cell{Age: bucket, Gender: g, Race: rc}]
				if want == -1 {
					want = n
				} else if n != want {
					return fmt.Errorf("voter: bucket %s unbalanced: cell %s/%s has %d, want %d",
						bucket, g, rc, n, want)
				}
			}
		}
	}
	return nil
}

// povertyOf returns the ZIP-level poverty rate for a record, defaulting to
// the statewide median proxy when the ZIP is unknown.
func povertyOf(reg *Registry, r *Record) float64 {
	if p, ok := reg.ZIPPoverty[r.ZIP]; ok {
		return p
	}
	return 0.12
}

// PovertyStats reports the median ZIP-poverty per race group in a sample,
// the quantities Appendix A cites ("half of the white people we targeted
// lived in ZIP codes with poverty at 12% or below, and half of the Black
// people lived in ZIP codes with poverty at 16% or below").
func PovertyStats(reg *Registry, sample []Record) (medianWhite, medianBlack float64) {
	var w, b []float64
	for i := range sample {
		r := &sample[i]
		p := povertyOf(reg, r)
		switch r.Race {
		case demo.RaceWhite:
			w = append(w, p)
		case demo.RaceBlack:
			b = append(b, p)
		}
	}
	return median(w), median(b)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MatchPoverty subsamples a stratified sample so the ZIP-poverty
// distribution is identical across every race×gender cell (Appendix A). It
// bins poverty into nBins quantile bins computed over the whole sample, then
// keeps min-cell-count records per (age bucket, bin) from each race×gender
// cell. The result remains stratification-balanced. An empty sample yields
// an empty result and consumes no draws.
func MatchPoverty(reg *Registry, sample []Record, nBins int, rng *rand.Rand) []Record {
	if len(sample) == 0 {
		return nil
	}
	if nBins < 2 {
		nBins = 2
	}
	// Quantile bin edges over the pooled poverty values.
	pooled := make([]float64, len(sample))
	for i := range sample {
		pooled[i] = povertyOf(reg, &sample[i])
	}
	sort.Float64s(pooled)
	edges := make([]float64, nBins-1)
	for b := 1; b < nBins; b++ {
		edges[b-1] = pooled[len(pooled)*b/nBins]
	}
	binOf := func(p float64) int {
		for b, e := range edges {
			if p < e {
				return b
			}
		}
		return nBins - 1
	}

	type stratum struct {
		age demo.AgeBucket
		bin int
	}
	byStratumCell := map[stratum]map[Cell][]int{}
	for i := range sample {
		r := &sample[i]
		s := stratum{age: r.AgeBucket(), bin: binOf(povertyOf(reg, r))}
		c := Cell{Age: r.AgeBucket(), Gender: r.Gender, Race: r.Race}
		if byStratumCell[s] == nil {
			byStratumCell[s] = map[Cell][]int{}
		}
		byStratumCell[s][c] = append(byStratumCell[s][c], i)
	}

	var out []Record
	// Deterministic iteration order: age buckets then bins.
	for _, bucket := range demo.AllAgeBuckets() {
		for bin := 0; bin < nBins; bin++ {
			cells := byStratumCell[stratum{age: bucket, bin: bin}]
			if cells == nil {
				continue
			}
			k := math.MaxInt
			for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
				for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
					n := len(cells[Cell{Age: bucket, Gender: g, Race: rc}])
					if n < k {
						k = n
					}
				}
			}
			if k == math.MaxInt || k == 0 {
				continue
			}
			for _, g := range []demo.Gender{demo.GenderMale, demo.GenderFemale} {
				for _, rc := range []demo.Race{demo.RaceWhite, demo.RaceBlack} {
					idx := cells[Cell{Age: bucket, Gender: g, Race: rc}]
					for _, j := range rng.Perm(len(idx))[:k] {
						out = append(out, sample[idx[j]])
					}
				}
			}
		}
	}
	return out
}
