package gan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/image"
)

// The layer benchmarks run the default network (18 × 64 activations) at the
// scale bench/'s audit_bench workload uses: 2000 discovery samples.

var (
	sinkActs  []float64
	sinkImage image.Features
)

func benchSetup(b *testing.B) (*Network, *face.Classifier) {
	b.Helper()
	net, err := New(DefaultConfig(11))
	if err != nil {
		b.Fatal(err)
	}
	clf, err := face.Train(face.TrainOptions{CorpusSize: 4000, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	return net, clf
}

func BenchmarkDiscoverDirections(b *testing.B) {
	net, clf := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DiscoverDirections(net, clf, 2000, 13, SGDOptions{Seed: 14}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariantGrid(b *testing.B) {
	net, clf := benchSetup(b)
	ds, sources, err := DiscoverDirections(net, clf, 400, 13, SGDOptions{Seed: 14, Epochs: 10})
	if err != nil {
		b.Fatal(err)
	}
	faces := make([]*Face, 8)
	for i := range faces {
		if faces[i], err = sources.Face(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VariantGrid(net, clf, ds, faces[i%len(faces)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapping(b *testing.B) {
	net, _ := benchSetup(b)
	rng := rand.New(rand.NewSource(15))
	z := make([]float64, net.LatentDim())
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkActs, _ = net.Mapping(z)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	net, _ := benchSetup(b)
	f, err := net.Sample(rand.New(rand.NewSource(16)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkImage, _ = net.Synthesize(f.Activations)
	}
}

// BenchmarkMatVec times the product at the pipeline's three shapes: the
// mapping network's first layer (64×512), each later layer (64×64) and the
// synthesizer's read-out (11×1152).
func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range [][2]int{{64, 512}, {64, 64}, {11, 1152}} {
		rows, fanIn := shape[0], shape[1]
		w, x, bias := make([]float64, rows*fanIn), make([]float64, fanIn), make([]float64, rows)
		for _, v := range [][]float64{w, x, bias} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		out := make([]float64, rows)
		b.Run(fmt.Sprintf("%dx%d", rows, fanIn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matVec(out, bias, w, x)
			}
			sinkActs = out
		})
	}
}

// BenchmarkFitDirections times the fused fit alone, at the audit's shape:
// 2000 samples of 1152 activations, default options.
func BenchmarkFitDirections(b *testing.B) {
	const n, dim = 2000, 1152
	rng := rand.New(rand.NewSource(18))
	acts := make([][]float64, n)
	a, c, ages := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range acts {
		acts[i] = make([]float64, dim)
		for j := range acts[i] {
			acts[i][j] = math.Tanh(rng.NormFloat64())
		}
		a[i] = float64(rng.Intn(2))
		c[i] = float64(rng.Intn(2))
		ages[i] = 40 + 15*rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wa, _, _, err := fitDirections(acts, a, c, ages, SGDOptions{Seed: 14})
		if err != nil {
			b.Fatal(err)
		}
		sinkActs = wa
	}
}
