package voter

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// StratifiedSample selects voters such that, within each age bucket, every
// gender×race cell contributes exactly the same number of them (§3.2: "we
// select voters such that the number of men and women is equal, as is the
// number of Black and white voters, and as are the intersections of race and
// gender"). The per-bucket group size is the size of the rarest cell,
// optionally capped by maxPerCell (0 = uncapped). Sampling within a cell is
// uniform without replacement and deterministic in rng; records and index
// entries of one registry yield the same voters for the same rng.
func StratifiedSample[T Voter, P voterRef[T]](voters []T, maxPerCell int, rng *rand.Rand) []T {
	byCell := map[Cell][]int{}
	for i := range voters {
		c := P(&voters[i]).Cell()
		if c.Race != demo.RaceWhite && c.Race != demo.RaceBlack {
			continue // the audit only balances the two measured race groups
		}
		if c.Gender == demo.GenderUnknown {
			continue
		}
		byCell[c] = append(byCell[c], i)
	}
	var out []T
	for _, bucket := range demo.AllAgeBuckets() {
		out = balance(out, voters, bucket, byCell, maxPerCell, rng)
	}
	return out
}

// balance appends to out, from each of bucket's four gender×race cells, k of
// the voters byCell lists for it, drawn uniformly without replacement: k is
// the size of the rarest cell, capped by maxPerCell (0 = uncapped). Each cell
// draws one rng.Perm, in bucketCells order; a bucket with an empty cell
// draws nothing.
func balance[T any](out, voters []T, bucket demo.AgeBucket, byCell map[Cell][]int, maxPerCell int, rng *rand.Rand) []T {
	cells := bucketCells(bucket)
	k := math.MaxInt
	for _, c := range cells {
		k = min(k, len(byCell[c]))
	}
	if k == 0 {
		return out
	}
	if maxPerCell > 0 && k > maxPerCell {
		k = maxPerCell
	}
	for _, c := range cells {
		idx := byCell[c]
		for _, j := range rng.Perm(len(idx))[:k] {
			out = append(out, voters[idx[j]])
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
func Table1[T Voter, P voterRef[T]](sample []T) []Table1Row {
	counts := CellCounts[T, P](sample)
	var rows []Table1Row
	for _, bucket := range demo.AllAgeBuckets() {
		cells := bucketCells(bucket)
		total := 0
		for _, c := range cells {
			total += counts[c]
		}
		if total > 0 {
			rows = append(rows, Table1Row{Age: bucket, GroupSize: counts[cells[0]], Total: total})
		}
	}
	return rows
}

// VerifyBalance checks the Table 1 invariant: within every age bucket all
// four gender×race cells have identical counts.
func VerifyBalance[T Voter, P voterRef[T]](sample []T) error {
	counts := CellCounts[T, P](sample)
	for _, bucket := range demo.AllAgeBuckets() {
		cells := bucketCells(bucket)
		want := counts[cells[0]]
		for _, c := range cells[1:] {
			if n := counts[c]; n != want {
				return fmt.Errorf("voter: bucket %s unbalanced: cell %s/%s has %d, want %d",
					bucket, c.Gender, c.Race, n, want)
			}
		}
	}
	return nil
}

// PovertyStats reports the median ZIP-poverty per race group in a sample,
// the quantities Appendix A cites ("half of the white people we targeted
// lived in ZIP codes with poverty at 12% or below, and half of the Black
// people lived in ZIP codes with poverty at 16% or below"). poverty reads a
// voter's ZIP poverty: Index.Poverty for entries.
func PovertyStats[T Voter, P voterRef[T]](sample []T, poverty func(P) float64) (medianWhite, medianBlack float64) {
	var w, b []float64
	for i := range sample {
		v := P(&sample[i])
		switch v.Cell().Race {
		case demo.RaceWhite:
			w = append(w, poverty(v))
		case demo.RaceBlack:
			b = append(b, poverty(v))
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

// povertyBins is how many quantile bins MatchPoverty matches poverty within.
const povertyBins = 10

// MatchPoverty subsamples a stratified sample so the ZIP-poverty
// distribution is identical across every race×gender cell (Appendix A). It
// bins poverty, as poverty reads it, into ten quantile bins (povertyBins)
// computed over the whole sample, then keeps min-cell-count voters per (age
// bucket, bin) from each race×gender cell. The result remains
// stratification-balanced. An empty sample yields an empty result and
// consumes no draws.
func MatchPoverty[T Voter, P voterRef[T]](sample []T, poverty func(P) float64, rng *rand.Rand) []T {
	if len(sample) == 0 {
		return nil
	}
	// Quantile bin edges over the pooled poverty values.
	pooled := make([]float64, len(sample))
	for i := range sample {
		pooled[i] = poverty(&sample[i])
	}
	sort.Float64s(pooled)
	edges := make([]float64, povertyBins-1)
	for b := 1; b < povertyBins; b++ {
		edges[b-1] = pooled[len(pooled)*b/povertyBins]
	}
	binOf := func(p float64) int {
		for b, e := range edges {
			if p < e {
				return b
			}
		}
		return povertyBins - 1
	}

	type stratum struct {
		age demo.AgeBucket
		bin int
	}
	byStratumCell := map[stratum]map[Cell][]int{}
	for i := range sample {
		v := P(&sample[i])
		c := v.Cell()
		s := stratum{age: c.Age, bin: binOf(poverty(v))}
		if byStratumCell[s] == nil {
			byStratumCell[s] = map[Cell][]int{}
		}
		byStratumCell[s][c] = append(byStratumCell[s][c], i)
	}

	var out []T
	// Deterministic iteration order: age buckets then bins.
	for _, bucket := range demo.AllAgeBuckets() {
		for bin := 0; bin < povertyBins; bin++ {
			out = balance(out, sample, bucket, byStratumCell[stratum{age: bucket, bin: bin}], 0, rng)
		}
	}
	return out
}
