package gan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// The two functions below are the single-head fits as they stood before
// fitDirections fused them, moved here verbatim (names aside) as the oracle
// the fused kernel is compared against element for element.

// oracleFitLogisticDirection fits a logistic regression of binary labels on
// activation vectors by momentum SGD and returns the normalized coefficient
// vector. Used for the gender direction (female vs male) and each race
// direction (target race vs white distractor).
func oracleFitLogisticDirection(name string, acts [][]float64, labels []float64, opt SGDOptions) (Direction, error) {
	if err := checkFitInputs(acts, labels); err != nil {
		return Direction{}, err
	}
	opt.setDefaults()
	dim := len(acts[0])
	w := make([]float64, dim)
	vel := make([]float64, dim)
	var b, bVel float64
	rng := rand.New(rand.NewSource(opt.Seed))
	n := len(acts)
	order := rng.Perm(n)
	lr := opt.LearnRate
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		// Fisher-Yates reshuffle per epoch for SGD independence.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, i := range order {
			x := acts[i]
			z := b
			for j, v := range x {
				z += w[j] * v
			}
			g := stats.Sigmoid(z) - labels[i] // d(logloss)/dz
			bVel = opt.Momentum*bVel - lr*g
			b += bVel
			for j, v := range x {
				grad := g*v + opt.L2*w[j]
				vel[j] = opt.Momentum*vel[j] - lr*grad
				w[j] += vel[j]
			}
		}
		lr *= 0.95
	}
	return normalizedDirection(name, w)
}

// oracleFitLinearDirection fits a least-squares regression of a continuous target
// (the paper's age model) on activation vectors by momentum SGD and returns
// the normalized coefficient vector. Targets are standardized internally.
func oracleFitLinearDirection(name string, acts [][]float64, targets []float64, opt SGDOptions) (Direction, error) {
	if err := checkFitInputs(acts, targets); err != nil {
		return Direction{}, err
	}
	opt.setDefaults()
	mean := stats.Mean(targets)
	sd := stats.StdDev(targets)
	if sd == 0 {
		return Direction{}, fmt.Errorf("gan: constant target for direction %q", name)
	}
	y := make([]float64, len(targets))
	for i, t := range targets {
		y[i] = (t - mean) / sd
	}
	dim := len(acts[0])
	w := make([]float64, dim)
	var b float64
	rng := rand.New(rand.NewSource(opt.Seed))
	n := len(acts)
	order := rng.Perm(n)
	// Normalized LMS: the per-sample step is divided by 1+|x|², which keeps
	// the update stable for any feature scale or dimension.
	lr := 0.5
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, i := range order {
			x := acts[i]
			z := b
			var xx float64
			for j, v := range x {
				z += w[j] * v
				xx += v * v
			}
			g := (z - y[i]) / (1 + xx)
			b -= lr * g
			for j, v := range x {
				w[j] -= lr * (g*v + opt.L2*w[j]/float64(n))
			}
		}
	}
	return normalizedDirection(name, w)
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestPipelineBitsMatchGolden pins the whole §5.4 stage — sampling through
// Mapping and Synthesize, the three direction fits, and the 20-profile
// variant grid — to SHA-256 digests of its float64 bit patterns, captured
// before the kernels were fused and blocked. The second configuration has a
// LayerWidth that is not a multiple of four, so the remainder loops of
// matVec are on the path. Like every digest golden in this repository they
// are amd64 values: a compiler that contracts a*b+c into a fused
// multiply-add (arm64, GOAMD64=v3) rounds differently.
func TestPipelineBitsMatchGolden(t *testing.T) {
	cases := []struct {
		cfg              Config
		directions, grid string
	}{
		{testConfig(10),
			"0cf3a1007a733ae36c00fd2e6b94f83cca58c0105af187e78ab94e8578cae426",
			"55841690db9b08cf56cd804f7acac77356494b327b506a09d1fe9515c689ead6"},
		{Config{Seed: 10, LatentDim: 50, NumLayers: 5, LayerWidth: 22},
			"3efc6aad01549903764b33bf3a609811ad6a55b40fc6cfa9b1f903645f7ed3ac",
			"c632acd858134ca181816c8719b5ff1f01ec1c5ac32df2d21cc0f35c85895679"},
	}
	clf, err := face.Train(face.TrainOptions{CorpusSize: 2500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		net, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, sources, err := DiscoverDirections(net, clf, 400, 12, SGDOptions{Seed: 13, Epochs: 25})
		if err != nil {
			t.Fatal(err)
		}
		source, err := sources.Face(1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashFloats(h, ds.Gender.Vec...)
		hashFloats(h, ds.Race.Vec...)
		hashFloats(h, ds.Age.Vec...)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.directions {
			t.Errorf("width %d: direction digest %s, golden %s", c.cfg.LayerWidth, got, c.directions)
		}
		variants, err := VariantGrid(net, clf, ds, source)
		if err != nil {
			t.Fatal(err)
		}
		h = sha256.New()
		for _, v := range variants {
			hashFloats(h, v.Activations...)
			hashFloats(h, v.Image.GenderAxis, v.Image.RaceAxis, v.Image.AgeYears)
			hashFloats(h, v.Image.Nuisance[:]...)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.grid {
			t.Errorf("width %d: variant-grid digest %s, golden %s", c.cfg.LayerWidth, got, c.grid)
		}
	}
}

// TestFusedFitEqualsSingleFits: one fitDirections call returns, element for
// element, what three stand-alone fits of the same heads return — over
// several seeds, sample counts and dimensions that are not multiples of
// four, and non-default options.
func TestFusedFitEqualsSingleFits(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		n, dim int
		opt    SGDOptions
	}{
		{1, 50, 7, SGDOptions{Seed: 3}},
		{2, 201, 110, SGDOptions{Seed: 13, Epochs: 25}},
		{3, 403, 144, SGDOptions{Seed: 5, Epochs: 9, LearnRate: 0.3, Momentum: 0.8, L2: 1e-2}},
		{4, 97, 33, SGDOptions{Epochs: 3}},
	} {
		t.Run(fmt.Sprintf("seed%d_n%d_dim%d", c.seed, c.n, c.dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			acts := make([][]float64, c.n)
			a, b, ages := make([]float64, c.n), make([]float64, c.n), make([]float64, c.n)
			for i := range acts {
				acts[i] = make([]float64, c.dim)
				for j := range acts[i] {
					acts[i][j] = math.Tanh(rng.NormFloat64())
				}
				a[i] = float64(rng.Intn(2))
				b[i] = float64(rng.Intn(2))
				ages[i] = 40 + 15*rng.NormFloat64()
			}
			wa, wb, wc, err := fitDirections(acts, a, b, ages, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			oa, err := oracleFitLogisticDirection("a", acts, a, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			ob, err := oracleFitLogisticDirection("b", acts, b, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			oc, err := oracleFitLinearDirection("c", acts, ages, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			for h, pair := range []struct {
				fused  []float64
				single Direction
			}{{wa, oa}, {wb, ob}, {wc, oc}} {
				got, err := normalizedDirection("fused", pair.fused)
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range pair.single.Vec {
					if got.Vec[j] != v {
						t.Fatalf("head %d element %d: fused %v, single fit %v", h, j, got.Vec[j], v)
					}
				}
			}
		})
	}
}

// rowDots is matVec's oracle: one plain dot per row, bias first, in
// ascending j.
func rowDots(out, bias, w, x []float64) {
	for i := range out {
		var s float64
		if bias != nil {
			s = bias[i]
		}
		for j, v := range x {
			s += w[i*len(x)+j] * v
		}
		out[i] = s
	}
}

// sameBits fails the test unless got and want hold the same float64 bit
// patterns, the sign of zero included, where a NaN matches any NaN: when
// both operands of an addition are NaNs, amd64 returns the destination's,
// and which operand Go makes the destination is the compiler's choice (the
// oracle compiled for fuzzing picks differently from the oracle compiled
// for tests).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) && !(math.IsNaN(got[i]) && math.IsNaN(v)) {
			t.Fatalf("%s[%d] = %v (%#016x), oracle %v (%#016x)", what, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// TestMatVecEqualsRowDots: the blocked product (eight-row and four-row
// blocks, sliding back over rows already done) equals one plain dot per row,
// bit for bit, for row counts on and around every block edge and the
// pipeline's widths, with and without a bias.
func TestMatVecEqualsRowDots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rowCounts := []int{24, 64}
	for r := 1; r <= 17; r++ {
		rowCounts = append(rowCounts, r)
	}
	for _, rows := range rowCounts {
		for _, fanIn := range []int{1, 2, 7, 64, 512, 1152} {
			w := make([]float64, rows*fanIn)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			x := make([]float64, fanIn)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			bias := make([]float64, rows)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}
			for _, b := range [][]float64{nil, bias} {
				got, want := make([]float64, rows), make([]float64, rows)
				matVec(got, b, w, x)
				rowDots(want, b, w, x)
				sameBits(t, fmt.Sprintf("rows %d fanIn %d bias %v: out", rows, fanIn, b != nil), got, want)
			}
		}
	}
}

// oracleStep is sgdState.step as it stood before the amd64 kernel, moved
// here verbatim (name aside) as the oracle the kernel is compared against.
func (s *sgdState) oracleStep(x, next []float64, g sgdGrad, z preact) preact {
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

// stepCase is one step's operands: a state (weights, velocities and the
// scalars), the sample and the next sample, the gradients and the sums.
type stepCase struct {
	s       sgdState
	x, next []float64
	g       sgdGrad
	z       preact
}

// newStepCase draws a dim-element case, every value from draw.
func newStepCase(dim int, draw func() float64) stepCase {
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	return stepCase{
		s: sgdState{wa: vec(), wb: vec(), wc: vec(), va: vec(), vb: vec(),
			mom: draw(), l2: draw(), n: draw()},
		x: vec(), next: vec(),
		g: sgdGrad{a: draw(), b: draw(), c: draw(), lr: draw()},
		z: preact{a: draw(), b: draw(), c: draw(), xx: draw()},
	}
}

// check runs step (the kernel) and oracleStep on two copies of the case
// and compares every weight, every velocity and the four sums bit for bit.
func (c stepCase) check(t *testing.T, what string) {
	t.Helper()
	copyState := func() sgdState {
		s := c.s
		s.wa, s.wb, s.wc = slices.Clone(s.wa), slices.Clone(s.wb), slices.Clone(s.wc)
		s.va, s.vb = slices.Clone(s.va), slices.Clone(s.vb)
		return s
	}
	kernel, oracle := copyState(), copyState()
	got := kernel.step(c.x, c.next, c.g, c.z)
	want := oracle.oracleStep(c.x, c.next, c.g, c.z)
	for _, v := range []struct {
		name      string
		got, want []float64
	}{
		{"wa", kernel.wa, oracle.wa}, {"wb", kernel.wb, oracle.wb}, {"wc", kernel.wc, oracle.wc},
		{"va", kernel.va, oracle.va}, {"vb", kernel.vb, oracle.vb},
		{"sums (a, b, c, xx)", []float64{got.a, got.b, got.c, got.xx}, []float64{want.a, want.b, want.c, want.xx}},
	} {
		sameBits(t, what+": "+v.name, v.got, v.want)
	}
}

// specialFloats are the IEEE values a kernel can get wrong where ordinary
// ones agree: signed zeros, subnormals, values near overflow, infinities and
// NaNs with different payloads (a signalling one among them).
var specialFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 1e308, -1.7e308,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001),
}

// TestStepEqualsPlainLoop: the fused SGD step equals the loop it replaced,
// bit for bit, at odd and even dimensions around the pipeline's 1152, on
// ordinary values, on a realistic state, and with a share of special values.
func TestStepEqualsPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 2, 3, 1151, 1152, 1153} {
		for _, share := range []float64{0, 0.02, 0.3} {
			draw := func() float64 {
				if rng.Float64() < share {
					return specialFloats[rng.Intn(len(specialFloats))]
				}
				return rng.NormFloat64()
			}
			for trial := 0; trial < 4; trial++ {
				c := newStepCase(dim, draw)
				if trial == 0 {
					// fitDirections' own scalars: default options, 2000 samples.
					c.s.mom, c.s.l2, c.s.n, c.g.lr = 0.9, 1e-3, 2000, 0.5
				}
				c.check(t, fmt.Sprintf("dim %d share %v trial %d", dim, share, trial))
			}
		}
	}
}

// fuzzFloats reads float64 bit patterns from data's 8-byte words (the last
// one zero-padded), cycling from *at; with no data every value is zero.
func fuzzFloats(data []byte, at *int, n int) []float64 {
	out := make([]float64, n)
	words := (len(data) + 7) / 8
	for i := range out {
		if words == 0 {
			break
		}
		var w [8]byte
		k := (*at % words) * 8
		copy(w[:], data[k:])
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		*at++
	}
	return out
}

// fuzzSeeds adds seed inputs whose words are the special values, ordinary
// values, and both mixed.
func fuzzSeeds(add func(data []byte)) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	add(word(specialFloats...))
	add(word(0.1, -1.7, 1.0/3, 0.9, 1e-3, 2000, -0.45, 7.3, 2.0/7, -2.2, 0.6, 1.9, -0.3))
	add(word(append([]float64{1.5, -0.5, 2.5}, specialFloats[5:]...)...))
}

func FuzzMatVecKernel(f *testing.F) {
	fuzzSeeds(func(data []byte) {
		for _, shape := range [][2]uint8{{1, 1}, {4, 7}, {11, 64}, {13, 3}, {64, 0}} {
			f.Add(shape[0], shape[1], true, data)
		}
	})
	f.Fuzz(func(t *testing.T, rows, fanIn uint8, biased bool, data []byte) {
		r, k := int(rows%64)+1, int(fanIn)
		at := 0
		w, x := fuzzFloats(data, &at, r*k), fuzzFloats(data, &at, k)
		var bias []float64
		if biased {
			bias = fuzzFloats(data, &at, r)
		}
		got, want := make([]float64, r), make([]float64, r)
		matVec(got, bias, w, x)
		rowDots(want, bias, w, x)
		sameBits(t, fmt.Sprintf("rows %d fanIn %d bias %v: out", r, k, biased), got, want)
	})
}

func FuzzStepKernel(f *testing.F) {
	fuzzSeeds(func(data []byte) {
		for _, dim := range []uint16{1, 2, 3, 8, 41} {
			f.Add(dim, data)
		}
	})
	f.Fuzz(func(t *testing.T, dim uint16, data []byte) {
		d := int(dim%1200) + 1
		at := 0
		newStepCase(d, func() float64 { return fuzzFloats(data, &at, 1)[0] }).check(t, fmt.Sprintf("dim %d", d))
	})
}

// TestTuneAllocatesOnlyTheWinner: a tune call scans 86 candidates; it must
// allocate the one slice it returns (plus the scan closure), not one per
// candidate.
func TestTuneAllocatesOnlyTheWinner(t *testing.T) {
	net := testNetwork(t, 10)
	rng := rand.New(rand.NewSource(1))
	f, err := net.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float64, net.ActivationDim())
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	dir, err := normalizedDirection("d", vec)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(img image.Features) float64 { return abs(img.GenderAxis - 0.5) }
	buf := make([]float64, len(f.Activations))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := tune(net, f.Activations, dir, errOf, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("tune allocated %v objects per call, want O(1) (it scans 86 candidates)", allocs)
	}
}

// TestSourcesReplayBatchFaces: discovery keeps no sample, so the faces the
// audit edits are regenerated — and each must be, activation for activation
// and image field for image field, the face SampleBatch over the sampling
// seed puts at that index (the face a pipeline holding its samples used).
func TestSourcesReplayBatchFaces(t *testing.T) {
	net := testNetwork(t, 10)
	clf, err := face.Train(face.TrainOptions{CorpusSize: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, sources, err := DiscoverDirections(net, clf, 80, 12, SGDOptions{Seed: 13, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := net.SampleBatch(80, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if sources.Len() != len(batch) {
		t.Fatalf("%d sources, want %d", sources.Len(), len(batch))
	}
	for _, i := range []int{0, 1, 4, 79} {
		got, err := sources.Face(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Image != batch[i].Image {
			t.Errorf("face %d: image %+v, batch %+v", i, got.Image, batch[i].Image)
		}
		if len(got.Activations) != len(batch[i].Activations) {
			t.Fatalf("face %d: %d activations, batch %d", i, len(got.Activations), len(batch[i].Activations))
		}
		for j, v := range got.Activations {
			if v != batch[i].Activations[j] {
				t.Fatalf("face %d: activation %d = %v, batch %v", i, j, v, batch[i].Activations[j])
			}
		}
	}
	for _, i := range []int{-1, 80} {
		if _, err := sources.Face(i); err == nil {
			t.Errorf("face %d of 80: want an error", i)
		}
	}
}

// TestDiscoveryAllocatesOneMatrix: at the benchmark's 2 000 samples on the
// default network, everything DiscoverDirections allocates is its 18.4 MB
// activation matrix plus per-run vectors (row headers, labels, weights) —
// no face, latent or activation vector per sample, which cost 26.6 MB more.
func TestDiscoveryAllocatesOneMatrix(t *testing.T) {
	net, err := New(DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := face.Train(face.TrainOptions{CorpusSize: 500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := DiscoverDirections(net, clf, n, 13, SGDOptions{Seed: 14, Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	matrix := float64(n * net.ActivationDim() * 8)
	if over := float64(after.TotalAlloc-before.TotalAlloc) - matrix; over > 2<<20 {
		t.Errorf("DiscoverDirections allocated %.1f MB beyond its %.1f MB matrix", over/(1<<20), matrix/(1<<20))
	}
}
