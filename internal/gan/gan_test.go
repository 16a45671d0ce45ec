package gan

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/image"
)

// testConfig keeps unit tests fast; the technique is width-independent.
func testConfig(seed int64) Config {
	return Config{Seed: seed, LatentDim: 64, NumLayers: 6, LayerWidth: 24}
}

func testNetwork(t *testing.T, seed int64) *Network {
	t.Helper()
	n, err := New(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config: want error")
	}
	if _, err := New(Config{LatentDim: 10, NumLayers: -1, LayerWidth: 5}); err == nil {
		t.Error("negative layers: want error")
	}
}

func TestMappingShapeAndDeterminism(t *testing.T) {
	n := testNetwork(t, 1)
	z := make([]float64, n.LatentDim())
	rng := rand.New(rand.NewSource(9))
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	a1, err := n.Mapping(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != n.ActivationDim() {
		t.Fatalf("activation length %d, want %d", len(a1), n.ActivationDim())
	}
	a2, _ := n.Mapping(z)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("mapping not deterministic")
		}
		if a1[i] < -1 || a1[i] > 1 {
			t.Fatalf("activation %v outside tanh range", a1[i])
		}
	}
	if _, err := n.Mapping(z[:3]); err == nil {
		t.Error("short latent: want error")
	}
}

func TestSameSeedNetworksIdentical(t *testing.T) {
	a := testNetwork(t, 5)
	b := testNetwork(t, 5)
	z := make([]float64, a.LatentDim())
	z[0] = 1
	fa, _ := a.Mapping(z)
	fb, _ := b.Mapping(z)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same-seed networks differ")
		}
	}
}

func TestSampleBatchDiversity(t *testing.T) {
	n := testNetwork(t, 2)
	rng := rand.New(rand.NewSource(3))
	faces, err := n.SampleBatch(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	var female, black, child, elderly int
	for _, f := range faces {
		p := f.Image.ImpliedProfile()
		if p.Gender == demo.GenderFemale {
			female++
		}
		if p.Race == demo.RaceBlack {
			black++
		}
		switch p.Age {
		case demo.ImpliedChild:
			child++
		case demo.ImpliedElderly:
			elderly++
		}
	}
	// Random faces must cover both sides of every axis.
	if female < 50 || female > 350 {
		t.Errorf("female count %d of 400: poor gender coverage", female)
	}
	if black < 50 || black > 350 {
		t.Errorf("black count %d of 400: poor race coverage", black)
	}
	if child == 0 || elderly == 0 {
		t.Errorf("age coverage: child=%d elderly=%d", child, elderly)
	}
	if _, err := n.SampleBatch(0, rng); err == nil {
		t.Error("zero batch: want error")
	}
}

func TestSynthesizeRejectsWrongLength(t *testing.T) {
	n := testNetwork(t, 4)
	if _, err := n.Synthesize(make([]float64, 3)); err == nil {
		t.Error("short activations: want error")
	}
}

// plantedFit generates synthetic activations with two planted hyperplanes
// (binary labels) and one planted linear response, fits all three heads in
// one fitDirections call, and returns each fitted direction's cosine with
// its truth.
func plantedFit(t *testing.T) (cosA, cosB, cosC float64, dirs [3]Direction) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dim := 40
	var truth [3][]float64
	for h := range truth {
		truth[h] = make([]float64, dim)
		for i := range truth[h] {
			truth[h][i] = rng.NormFloat64()
		}
	}
	n := 1500
	acts := make([][]float64, n)
	var targets [3][]float64
	for h := range targets {
		targets[h] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		a := make([]float64, dim)
		var z [3]float64
		for j := range a {
			a[j] = rng.NormFloat64()
			for h := range z {
				z[h] += truth[h][j] * a[j]
			}
		}
		acts[i] = a
		if z[0] > 0 {
			targets[0][i] = 1
		}
		if z[1] > 0 {
			targets[1][i] = 1
		}
		targets[2][i] = 40 + 5*z[2] + rng.NormFloat64()
	}
	wa, wb, wc, err := fitDirections(acts, targets[0], targets[1], targets[2], SGDOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cos [3]float64
	for h, w := range [][]float64{wa, wb, wc} {
		if dirs[h], err = normalizedDirection("planted", w); err != nil {
			t.Fatal(err)
		}
		cos[h] = cosine(dirs[h], Direction{Vec: truth[h]})
	}
	return cos[0], cos[1], cos[2], dirs
}

func TestFitLogisticDirectionRecoversPlantedDirection(t *testing.T) {
	// Labels generated from known hyperplanes over synthetic activations:
	// each logistic head's fitted direction must align with its own.
	cosA, cosB, _, dirs := plantedFit(t)
	if cosA < 0.9 || cosB < 0.9 {
		t.Errorf("cosines with planted directions %v, %v, want > 0.9", cosA, cosB)
	}
	// Unit norm.
	var norm float64
	for _, v := range dirs[0].Vec {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("direction norm² = %v", norm)
	}
}

func TestFitLinearDirectionRecoversPlantedDirection(t *testing.T) {
	if _, _, cos, _ := plantedFit(t); cos < 0.9 {
		t.Errorf("cosine with planted direction %v", cos)
	}
}

func TestFitDirectionInputValidation(t *testing.T) {
	fit := func(acts [][]float64, a, b, c []float64) error {
		_, _, _, err := fitDirections(acts, a, b, c, SGDOptions{})
		return err
	}
	if fit(nil, nil, nil, nil) == nil {
		t.Error("empty inputs: want error")
	}
	two := [][]float64{{1}, {2}}
	if fit(two, []float64{1, 0, 1}, []float64{1, 0}, []float64{5, 6}) == nil {
		t.Error("length mismatch in a logistic head: want error")
	}
	if fit(two, []float64{1, 0}, []float64{1, 0}, []float64{5}) == nil {
		t.Error("length mismatch in the linear head: want error")
	}
	if fit([][]float64{{1, 2}, {1}}, []float64{1, 0}, []float64{1, 0}, []float64{5, 6}) == nil {
		t.Error("ragged activations: want error")
	}
	if fit(two, []float64{1, 0}, []float64{1, 0}, []float64{5, 5}) == nil {
		t.Error("constant target: want error")
	}
	if err := fit(two, []float64{1, 0}, []float64{0, 1}, []float64{5, 6}); err != nil {
		t.Errorf("valid inputs: %v", err)
	}
}

func TestWalkMovesAlongDirection(t *testing.T) {
	acts := []float64{1, 2, 3}
	dir := Direction{Vec: []float64{1, 0, 0}}
	out := Walk(acts, dir, 2.5)
	if out[0] != 3.5 || out[1] != 2 || out[2] != 3 {
		t.Errorf("Walk = %v", out)
	}
	// Original untouched.
	if acts[0] != 1 {
		t.Error("Walk mutated input")
	}
}

// trainedSetup discovers directions over 1500 samples and returns the first
// 80 of them (the batch over the sampling seed is what discovery sampled:
// TestSourcesReplayBatchFaces).
func trainedSetup(t *testing.T) (*Network, *face.Classifier, DirectionSet, []*Face) {
	t.Helper()
	net := testNetwork(t, 10)
	clf, err := face.Train(face.TrainOptions{CorpusSize: 2500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := DiscoverDirections(net, clf, 1500, 12, SGDOptions{Seed: 13, Epochs: 25})
	if err != nil {
		t.Fatal(err)
	}
	faces, err := net.SampleBatch(80, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	return net, clf, ds, faces
}

func TestDiscoverDirectionsTooFewSamples(t *testing.T) {
	net := testNetwork(t, 20)
	clf, err := face.Train(face.TrainOptions{CorpusSize: 500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DiscoverDirections(net, clf, 10, 1, SGDOptions{}); err == nil {
		t.Error("too few samples: want error")
	}
}

func TestDiscoveredDirectionsEditAttributes(t *testing.T) {
	net, clf, ds, faces := trainedSetup(t)
	// Walking positive along a direction must yield a higher attribute
	// score than walking negative (comparing against the unwalked base is
	// uninformative for faces already saturated on the attribute).
	var genderUp, raceUp, ageUp, n int
	for _, f := range faces[:80] {
		gp, err := net.Synthesize(Walk(f.Activations, ds.Gender, 3))
		if err != nil {
			t.Fatal(err)
		}
		gn, _ := net.Synthesize(Walk(f.Activations, ds.Gender, -3))
		rp, _ := net.Synthesize(Walk(f.Activations, ds.Race, 3))
		rn, _ := net.Synthesize(Walk(f.Activations, ds.Race, -3))
		ap, _ := net.Synthesize(Walk(f.Activations, ds.Age, 3))
		an, _ := net.Synthesize(Walk(f.Activations, ds.Age, -3))
		if clf.GenderScore(gp) > clf.GenderScore(gn) {
			genderUp++
		}
		if clf.RaceScore(rp) > clf.RaceScore(rn) {
			raceUp++
		}
		if clf.AgeYears(ap) > clf.AgeYears(an) {
			ageUp++
		}
		n++
	}
	if float64(genderUp)/float64(n) < 0.8 {
		t.Errorf("gender direction raised score for only %d/%d faces", genderUp, n)
	}
	if float64(raceUp)/float64(n) < 0.8 {
		t.Errorf("race direction raised score for only %d/%d faces", raceUp, n)
	}
	if float64(ageUp)/float64(n) < 0.8 {
		t.Errorf("age direction raised age for only %d/%d faces", ageUp, n)
	}
}

func TestDirectionsNearOrthogonal(t *testing.T) {
	_, _, ds, _ := trainedSetup(t)
	pairs := [][2]Direction{{ds.Gender, ds.Race}, {ds.Gender, ds.Age}, {ds.Race, ds.Age}}
	for _, p := range pairs {
		if c := math.Abs(cosine(p[0], p[1])); c > 0.5 {
			t.Errorf("|cos(%s, %s)| = %v, directions too entangled", p[0].Name, p[1].Name, c)
		}
	}
}

func TestTuneToProfileHitsTargets(t *testing.T) {
	net, clf, ds, faces := trainedSetup(t)
	source := faces[0]
	targets := []demo.Profile{
		{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedElderly},
		{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedChild},
		{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
	}
	for _, target := range targets {
		_, img, err := TuneToProfile(net, clf, ds, source.Activations, target)
		if err != nil {
			t.Fatal(err)
		}
		got := clf.Profile(img)
		if got.Gender != target.Gender || got.Race != target.Race {
			t.Errorf("target %v: classifier sees %v", target, got)
		}
		if math.Abs(clf.AgeYears(img)-target.Age.RepresentativeYears()) > 12 {
			t.Errorf("target %v: classified age %v", target, clf.AgeYears(img))
		}
	}
}

func TestVariantGridHoldsNuisanceConstant(t *testing.T) {
	net, clf, ds, faces := trainedSetup(t)
	variants, err := VariantGrid(net, clf, ds, faces[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 20 {
		t.Fatalf("%d variants, want 20", len(variants))
	}
	// Variants of the same person must sit far closer in nuisance space
	// than independent stock photos do — the §5.4 control property.
	var maxDist float64
	for i := 0; i < len(variants); i++ {
		for j := i + 1; j < len(variants); j++ {
			if d := image.NuisanceDistance(variants[i].Image, variants[j].Image); d > maxDist {
				maxDist = d
			}
		}
	}
	// Stock photos average nuisance distance > 1 per axis bank (see image
	// tests); same-person GAN variants stay well under that.
	if maxDist > 1.6 {
		t.Errorf("max within-person nuisance distance %v, variants not controlled", maxDist)
	}
}

// cosine returns the cosine similarity of two directions — the diagnostic
// used to verify that independently fitted attribute directions are close to
// orthogonal (so walking one holds the others approximately constant).
func cosine(a, b Direction) float64 {
	var num, na, nb float64
	for i := range a.Vec {
		num += a.Vec[i] * b.Vec[i]
		na += a.Vec[i] * a.Vec[i]
		nb += b.Vec[i] * b.Vec[i]
	}
	if na == 0 || nb == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(na*nb)
}
