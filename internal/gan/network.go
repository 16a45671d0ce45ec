// Package gan implements the study's stand-in for StyleGAN 2 (§5.4): a
// deterministic generative network that maps a 512-element latent vector
// through a multi-layer mapping network to per-layer activations, and
// synthesizes a face image (in the feature space of package image) from
// those activations. The package also implements the Nikitko latent-
// direction technique the paper uses verbatim: fit a logistic regression of
// classifier-assigned labels on the flattened activation vector; the fitted
// coefficient vector is the direction along which to perturb activations to
// add or remove the attribute while minimizing change to everything else.
//
// Scale note: real StyleGAN 2 has 18 layers × 512 neurons (the paper flattens
// these to one activation vector; its stated length 9,126 is a typo for
// 9,216). The layer count is kept at 18 here and the layer width is
// configurable; the default width is reduced so direction fitting on
// commodity hardware stays fast. Nothing in the technique depends on the
// width.
package gan

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/image"
)

// Config configures the generative network.
type Config struct {
	Seed       int64
	LatentDim  int // z dimensionality; default 512 as in StyleGAN
	NumLayers  int // mapping-network depth; default 18 as in StyleGAN 2
	LayerWidth int // neurons per layer; default 64 (scaled down from 512)
}

// DefaultConfig returns the configuration used throughout the reproduction.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, LatentDim: 512, NumLayers: 18, LayerWidth: 64}
}

// Network is a frozen generative model: a mapping network followed by a
// synthesizer. All weights are fixed at construction, deterministic in the
// seed — the reproduction's analogue of downloading pretrained StyleGAN 2
// weights.
type Network struct {
	cfg Config

	// Mapping network: layer 0 maps z → width; layers 1..L-1 map the
	// previous layer's output → width. Weights are scaled for unit-variance
	// tanh activations.
	weights [][]float64 // per layer, row-major (width × fanIn)
	biases  [][]float64

	// Synthesizer: one unit read-out direction per image attribute over the
	// flattened activation vector, row-major in image.Features.Vector order
	// (gender, race, age, nuisance...).
	readout []float64 // image.VectorDim × ActivationDim
}

// ActivationDim returns the length of the flattened activation vector
// (NumLayers × LayerWidth).
func (n *Network) ActivationDim() int { return n.cfg.NumLayers * n.cfg.LayerWidth }

// LatentDim returns the z dimensionality.
func (n *Network) LatentDim() int { return n.cfg.LatentDim }

// New constructs the frozen network.
func New(cfg Config) (*Network, error) {
	if cfg.LatentDim <= 0 || cfg.NumLayers <= 0 || cfg.LayerWidth <= 0 {
		return nil, fmt.Errorf("gan: invalid config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	fanIn := cfg.LatentDim
	for l := 0; l < cfg.NumLayers; l++ {
		w := make([]float64, cfg.LayerWidth*fanIn)
		scale := 1 / math.Sqrt(float64(fanIn))
		for i := range w {
			w[i] = scale * rng.NormFloat64()
		}
		b := make([]float64, cfg.LayerWidth)
		for i := range b {
			b[i] = 0.1 * rng.NormFloat64()
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, b)
		fanIn = cfg.LayerWidth
	}
	dim := n.ActivationDim()
	n.readout = make([]float64, image.VectorDim*dim)
	for r := 0; r < image.VectorDim; r++ {
		v := n.readout[r*dim : (r+1)*dim]
		var norm float64
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return n, nil
}

// matVecGo computes out[i] = bias[i] + Σ_j w[i*len(x)+j]·x[j] for a row-major
// matrix w; a nil bias starts every sum at zero. Four output rows share one
// pass over x, so the loop carries four independent dependency chains and
// reads x once per block instead of once per row; each sum still receives
// its addends in ascending j (DESIGN.md, "Order-preserving kernels"). It is
// matVec on every GOARCH without an assembly kernel, and the amd64 kernel's
// path for fewer than four rows.
func matVecGo(out, bias, w, x []float64) {
	rows, fanIn := len(out), len(x)
	start := func(i int) float64 {
		if bias == nil {
			return 0
		}
		return bias[i]
	}
	if rows < 4 {
		for i := range out {
			row := w[i*fanIn:][:fanIn]
			s := start(i)
			for j, v := range x {
				s += row[j] * v
			}
			out[i] = s
		}
		return
	}
	for i := 0; i < rows; i += 4 {
		// A final partial block slides back over rows already done:
		// recomputing a row reproduces its sum, and no row is left to a
		// lone latency-bound chain.
		i = min(i, rows-4)
		r0 := w[i*fanIn:][:fanIn]
		r1 := w[(i+1)*fanIn:][:fanIn]
		r2 := w[(i+2)*fanIn:][:fanIn]
		r3 := w[(i+3)*fanIn:][:fanIn]
		s0, s1, s2, s3 := start(i), start(i+1), start(i+2), start(i+3)
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
}

// Mapping runs the mapping network, returning the flattened per-layer
// activation vector ("we saved the activation values for each neuron in each
// layer of the network and represented them reshaped as a one dimensional
// vector", §5.4).
func (n *Network) Mapping(z []float64) ([]float64, error) {
	if len(z) != n.cfg.LatentDim {
		return nil, fmt.Errorf("gan: latent length %d, want %d", len(z), n.cfg.LatentDim)
	}
	acts := make([]float64, n.ActivationDim())
	n.mappingInto(acts, z)
	return acts, nil
}

// mappingInto is Mapping into a caller-owned vector of ActivationDim values,
// for a latent of LatentDim values.
func (n *Network) mappingInto(acts, z []float64) {
	width := n.cfg.LayerWidth
	in := z
	for l := 0; l < n.cfg.NumLayers; l++ {
		out := acts[l*width : (l+1)*width]
		matVec(out, n.biases[l], n.weights[l], in)
		for i, s := range out {
			out[i] = math.Tanh(s)
		}
		in = out
	}
}

// Synthesis attribute scales: projections of a roughly unit-variance
// activation vector onto a unit direction have small magnitude, so each
// read-out is amplified before the squashing nonlinearity to cover the
// attribute's full range.
const (
	axisGain     = 12.0
	ageCenter    = 40.0
	ageSpan      = 34.0 // apparent ages ≈ [6, 74]
	nuisanceGain = 8.0
)

// Synthesize produces the face image encoded by an activation vector. It is
// a pure function of the activations, so perturbing activations along a
// latent direction and re-synthesizing is exactly the paper's image-editing
// operation.
func (n *Network) Synthesize(acts []float64) (image.Features, error) {
	if len(acts) != n.ActivationDim() {
		return image.Features{}, fmt.Errorf("gan: activation length %d, want %d", len(acts), n.ActivationDim())
	}
	var proj [image.VectorDim]float64
	matVec(proj[:], nil, n.readout, acts)
	f := image.Features{HasPerson: true}
	f.GenderAxis = math.Tanh(axisGain * proj[0])
	f.RaceAxis = math.Tanh(axisGain * proj[1])
	f.AgeYears = ageCenter + ageSpan*math.Tanh(axisGain*proj[2])
	for i := range f.Nuisance {
		f.Nuisance[i] = math.Tanh(nuisanceGain*proj[3+i]) * 1.2
	}
	f.ApplyPresentationBias()
	return f, nil
}

// Face is one generated sample: the activation vector and the synthesized
// image. The latent it came from is not kept; nothing reads it.
type Face struct {
	Activations []float64
	Image       image.Features
}

// drawLatent fills z with the next latent vector of the stream.
func drawLatent(z []float64, rng *rand.Rand) {
	for i := range z {
		z[i] = rng.NormFloat64()
	}
}

// Sample draws a random latent vector and runs the full pipeline.
func (n *Network) Sample(rng *rand.Rand) (*Face, error) {
	z := make([]float64, n.cfg.LatentDim)
	drawLatent(z, rng)
	return n.faceOf(z)
}

// faceOf maps and synthesizes one latent vector.
func (n *Network) faceOf(z []float64) (*Face, error) {
	acts, err := n.Mapping(z)
	if err != nil {
		return nil, err
	}
	img, err := n.Synthesize(acts)
	if err != nil {
		return nil, err
	}
	return &Face{Activations: acts, Image: img}, nil
}

// SampleBatch draws count faces.
func (n *Network) SampleBatch(count int, rng *rand.Rand) ([]*Face, error) {
	if count <= 0 {
		return nil, fmt.Errorf("gan: batch count %d", count)
	}
	out := make([]*Face, count)
	for i := range out {
		f, err := n.Sample(rng)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}
