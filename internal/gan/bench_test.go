package gan

import (
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
