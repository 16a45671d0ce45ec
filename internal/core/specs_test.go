package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"
)

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashSpecs(h hash.Hash, specs []AdSpec) {
	for _, s := range specs {
		fmt.Fprintf(h, "%s|%v|%v|%s|", s.Key, s.Profile, s.Image.HasPerson, s.Image.Job)
		hashFloats(h, s.Image.GenderAxis, s.Image.RaceAxis, s.Image.AgeYears)
		hashFloats(h, s.Image.Nuisance[:]...)
	}
}

// TestSyntheticPipelineMatchesGolden pins what the audit takes from the §5.4
// stage — the three fitted directions, the 100 synthetic ad specs of five
// source people and the 44 employment specs — to SHA-256 digests of their
// float64 bit patterns, recorded while the pipeline still held every
// discovery face (amd64 values, like internal/gan/kernel_test.go's).
func TestSyntheticPipelineMatchesGolden(t *testing.T) {
	sp, err := NewSyntheticPipeline(400, 510)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sp.SyntheticSpecs(5)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := sp.EmploymentSpecs(511)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 100 || len(emp) != 44 {
		t.Fatalf("%d synthetic and %d employment specs, want 100 and 44", len(syn), len(emp))
	}
	dirs, specs := sha256.New(), sha256.New()
	hashFloats(dirs, sp.Directions.Gender.Vec...)
	hashFloats(dirs, sp.Directions.Race.Vec...)
	hashFloats(dirs, sp.Directions.Age.Vec...)
	hashSpecs(specs, syn)
	hashSpecs(specs, emp)
	const (
		wantDirs  = "af1b767a0d29b6722d675a887c4711f127a7eb550a743d3129c7dc430382c23b"
		wantSpecs = "846e06740cd385486c3d538af5417f9ac7db87a0c6a4af2c4ac2e0979ecd4a81"
	)
	if got := hex.EncodeToString(dirs.Sum(nil)); got != wantDirs {
		t.Errorf("direction digest %s, golden %s", got, wantDirs)
	}
	if got := hex.EncodeToString(specs.Sum(nil)); got != wantSpecs {
		t.Errorf("spec digest %s, golden %s", got, wantSpecs)
	}
}

// TestSyntheticPipelineRetainsNoSamples: discovery at the benchmark's 2 000
// samples reads an 18.4 MB activation matrix; what the pipeline keeps of it
// is a recipe. The network's weights and the classifier are the whole
// retained heap (under 1 MB); a pipeline holding its faces kept ~27 MB.
func TestSyntheticPipelineRetainsNoSamples(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp, err := NewSyntheticPipeline(2000, 520)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	if grown > 2 {
		t.Errorf("the heap grew by %.1f MB across NewSyntheticPipeline(2000), want <= 2 MB", grown)
	}
	runtime.KeepAlive(sp)
}
