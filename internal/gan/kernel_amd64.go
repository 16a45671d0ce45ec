package gan

// The amd64 kernels run matVecGo's and stepGo's IEEE operations two per
// SSE2 instruction (DESIGN.md, "Order-preserving kernels"): the two lanes of
// a register are two different sums or two different weights, never two
// halves of one sum, so every result gets exactly the Go loop's operands in
// the Go loop's order, and the bits agree. The wrappers below reslice every
// operand to the length the assembly reads, so a short slice panics here,
// before any assembly runs.

// noBias holds the starting sums of a product without a bias.
var noBias [8]float64

// matVec is matVecGo, eight output rows per pass over x: four registers of
// two rows each. A final partial block slides back as a four-row block over
// rows already done, as matVecGo's does; fewer than four rows run in Go.
func matVec(out, bias, w, x []float64) {
	rows, fanIn := len(out), len(x)
	if rows < 4 {
		matVecGo(out, bias, w, x)
		return
	}
	w = w[:rows*fanIn]
	if bias != nil {
		bias = bias[:rows]
	}
	start := func(i, k int) []float64 {
		if bias == nil {
			return noBias[:k]
		}
		return bias[i : i+k]
	}
	i := 0
	for ; i+8 <= rows; i += 8 {
		matVec8(out[i:i+8], start(i, 8), w[i*fanIn:(i+8)*fanIn], x)
	}
	for ; i < rows; i += 4 {
		i = min(i, rows-4)
		matVec4(out[i:i+4], start(i, 4), w[i*fanIn:(i+4)*fanIn], x)
	}
}

// matVec8 sets out[k] = start[k] + Σ_j w[k*len(x)+j]·x[j] for the eight rows
// of w, adding in ascending j. It reads start[:8], w[:8*len(x)] and x, and
// writes out[:8].
//
//go:noescape
func matVec8(out, start, w, x []float64)

// matVec4 is matVec8 for four rows: it reads start[:4], w[:4*len(x)] and x,
// and writes out[:4].
//
//go:noescape
func matVec4(out, start, w, x []float64)

// step is stepGo with elements j and j+1 updated in one register, their
// products then added into z's sums lane 0 first; an odd last element runs
// in Go.
func (s *sgdState) step(x, next []float64, g sgdGrad, z preact) preact {
	d := len(x)
	wa, wb, wc, va, vb := s.wa[:d], s.wb[:d], s.wc[:d], s.va[:d], s.vb[:d]
	next = next[:d]
	h := d &^ 1
	if h > 0 {
		stepPairs(&z, x[:h], next[:h], wa[:h], wb[:h], wc[:h], va[:h], vb[:h], g, s.mom, s.l2, s.n)
	}
	if h < d {
		tail := sgdState{wa: wa[h:], wb: wb[h:], wc: wc[h:], va: va[h:], vb: vb[h:], mom: s.mom, l2: s.l2, n: s.n}
		z = tail.stepGo(x[h:], next[h:], g, z)
	}
	return z
}

// stepPairs is stepGo over an even number of elements, two at a time. It
// reads len(x) elements of every slice and z's four sums, and writes the
// weights, the velocities and z.
//
//go:noescape
func stepPairs(z *preact, x, next, wa, wb, wc, va, vb []float64, g sgdGrad, mom, l2, n float64)
