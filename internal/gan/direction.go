package gan

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/stats"
)

// Direction is a latent direction in activation space: the fitted
// coefficient vector of a regression of attribute labels on activations
// (§5.4: "the fitted coefficients of the regression model are precisely the
// vector in the activation space that represents the direction of change").
type Direction struct {
	Name string
	Vec  []float64 // unit length
}

// SGDOptions configures the stochastic-gradient fits used for direction
// discovery. Full-Newton logistic regression is quadratic in the activation
// dimension; gradient descent keeps direction fitting linear, which is what
// makes the 18×width activation space tractable.
type SGDOptions struct {
	Epochs int // default 40
	// LearnRate is the logistic heads' initial step (default 0.5). The
	// linear (age) head ignores it: normalized LMS runs at a fixed 0.5.
	LearnRate float64
	Momentum  float64 // default 0.9
	L2        float64 // default 1e-3
	Seed      int64   // shuffling seed
}

func (o *SGDOptions) setDefaults() {
	if o.Epochs == 0 {
		o.Epochs = 40
	}
	if o.LearnRate == 0 {
		o.LearnRate = 0.5
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.L2 == 0 {
		o.L2 = 1e-3
	}
}

// fitDirections fits two logistic heads (binary labels a, b: the gender and
// race directions) and one least-squares head (continuous targets c: the
// paper's age model, standardized internally) on the same activation
// vectors, and returns the three raw coefficient vectors.
//
// The heads are the three independent regressions of §5.4. They share one
// shuffling seed, hence one rng.Perm and one Fisher-Yates order per epoch,
// so one sweep of the activation matrix per epoch serves all three, and
// within it step visits the weights once per sample. Every sum receives
// the addends a stand-alone fit of its head would give it, in the same
// order (DESIGN.md, "Order-preserving kernels"); the oracle fits in the
// test file pin that element for element.
//
// The logistic heads use momentum SGD with a learning rate decaying 5 % per
// epoch. The linear head is normalized LMS: the per-sample step is divided
// by 1+|x|², which keeps the update stable for any feature scale or
// dimension; its step is fixed at 0.5 and ignores opt.LearnRate.
func fitDirections(acts [][]float64, a, b, c []float64, opt SGDOptions) (wa, wb, wc []float64, err error) {
	for _, labels := range [][]float64{a, b, c} {
		if err := checkFitInputs(acts, labels); err != nil {
			return nil, nil, nil, err
		}
	}
	opt.setDefaults()
	mean := stats.Mean(c)
	sd := stats.StdDev(c)
	if sd == 0 {
		return nil, nil, nil, fmt.Errorf("gan: constant target for the linear direction")
	}
	y := make([]float64, len(c))
	for i, t := range c {
		y[i] = (t - mean) / sd
	}
	n, dim := len(acts), len(acts[0])
	s := sgdState{
		wa: make([]float64, dim), wb: make([]float64, dim), wc: make([]float64, dim),
		va: make([]float64, dim), vb: make([]float64, dim),
		mom: opt.Momentum, l2: opt.L2, n: float64(n),
	}
	var ba, bb, bc, bva, bvb float64
	rng := rand.New(rand.NewSource(opt.Seed))
	order := rng.Perm(n)
	// Fisher-Yates reshuffle per epoch for SGD independence.
	shuffle := func() {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	shuffle()
	// The loop is software-pipelined: z holds the current sample's
	// pre-activations, accumulated while the previous sample's update was
	// applied. A step with zero gradients primes it — on the all-zero
	// initial state that update changes nothing.
	x := acts[order[0]]
	z := s.step(x, x, sgdGrad{}, preact{})
	lr := opt.LearnRate
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for pos, i := range order {
			g := sgdGrad{
				a:  stats.Sigmoid(z.a) - a[i], // d(logloss)/dz
				b:  stats.Sigmoid(z.b) - b[i],
				c:  (z.c - y[i]) / (1 + z.xx),
				lr: lr,
			}
			bva = s.mom*bva - lr*g.a
			ba += bva
			bvb = s.mom*bvb - lr*g.b
			bb += bvb
			bc -= lrLin * g.c
			// The next sample: the following one, or the first of the next
			// epoch's order (i is already read, so reshuffling now is safe
			// and draws what reshuffling after the update would). After the
			// last sample of the fit the look-ahead sums go unused.
			next := x
			switch {
			case pos+1 < n:
				next = acts[order[pos+1]]
			case epoch+1 < opt.Epochs:
				shuffle()
				next = acts[order[0]]
			}
			z = s.step(x, next, g, preact{a: ba, b: bb, c: bc})
			x = next
		}
		lr *= 0.95
	}
	return s.wa, s.wb, s.wc, nil
}

// lrLin is the linear head's fixed normalized-LMS step.
const lrLin = 0.5

// sgdState is the weight state of fitDirections: the three heads' weights
// and the logistic heads' momentum velocities.
type sgdState struct {
	wa, wb, wc []float64
	va, vb     []float64
	mom, l2, n float64
}

// sgdGrad is one sample's loss gradients with respect to the three heads'
// pre-activations, and the logistic learning rate of its epoch.
type sgdGrad struct{ a, b, c, lr float64 }

// preact is a sample's pre-activations under the three heads, and |x|².
type preact struct{ a, b, c, xx float64 }

// stepGo is step in Go: it applies sample x's weight update and, in the same
// pass over the weights, accumulates the next sample's pre-activations onto
// z (which arrives holding the biases): element j of every head is updated,
// then multiplied into the next sample's sums, so those sums see the updated
// weights in ascending j exactly as a separate pass after the update would.
// One loop instead of two halves the traffic over the weights and gives
// the core the update's independent work to overlap with the four
// latency-bound sums. It is step on every GOARCH without an assembly
// kernel, and the amd64 kernel's path for an odd last element.
func (s *sgdState) stepGo(x, next []float64, g sgdGrad, z preact) preact {
	// Reslicing to len(x) lets the compiler drop the bounds checks below.
	wa, wb, wc, va, vb := s.wa[:len(x)], s.wb[:len(x)], s.wc[:len(x)], s.va[:len(x)], s.vb[:len(x)]
	next = next[:len(x)]
	mom, l2, n := s.mom, s.l2, s.n
	for j, v := range x {
		grad := g.a*v + l2*wa[j]
		va[j] = mom*va[j] - g.lr*grad
		wa[j] += va[j]
		grad = g.b*v + l2*wb[j]
		vb[j] = mom*vb[j] - g.lr*grad
		wb[j] += vb[j]
		wc[j] -= lrLin * (g.c*v + l2*wc[j]/n)
		u := next[j]
		z.a += wa[j] * u
		z.b += wb[j] * u
		z.c += wc[j] * u
		z.xx += u * u
	}
	return z
}

func checkFitInputs(acts [][]float64, labels []float64) error {
	if len(acts) == 0 {
		return fmt.Errorf("gan: no activation samples")
	}
	if len(acts) != len(labels) {
		return fmt.Errorf("gan: %d samples but %d labels", len(acts), len(labels))
	}
	dim := len(acts[0])
	for i, a := range acts {
		if len(a) != dim {
			return fmt.Errorf("gan: sample %d has dim %d, want %d", i, len(a), dim)
		}
	}
	return nil
}

func normalizedDirection(name string, w []float64) (Direction, error) {
	var norm float64
	for _, v := range w {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return Direction{}, fmt.Errorf("gan: degenerate direction %q (norm %v)", name, norm)
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = v / norm
	}
	return Direction{Name: name, Vec: out}, nil
}

// Walk returns a copy of the activation vector moved alpha units along the
// direction. Positive alpha adds the attribute the direction models.
func Walk(acts []float64, dir Direction, alpha float64) []float64 {
	out := make([]float64, len(acts))
	walkInto(out, acts, dir, alpha)
	return out
}

// walkInto is Walk into a caller-owned buffer of len(acts) values.
func walkInto(out, acts []float64, dir Direction, alpha float64) {
	d := dir.Vec[:len(acts)]
	out = out[:len(acts)]
	for i, v := range acts {
		out[i] = v + alpha*d[i]
	}
}
