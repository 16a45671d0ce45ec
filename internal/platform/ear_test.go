package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// earFitDigest hashes every bit of a trained eAR model's fit. Writes into a
// hash cannot fail.
func earFitDigest(m *earModel) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, m.fit.Coef)
	binary.Write(h, binary.LittleEndian, m.fit.LogLik)
	binary.Write(h, binary.LittleEndian, int64(m.fit.Iterations))
	return hex.EncodeToString(h.Sum(nil))
}

// TestEARFitPinned pins the eAR trained on the real engagement-log design (76
// columns, about 25 of them non-zero in a row), bit for bit. The constant was
// recorded with the logistic fit multiplying out every regressor pair of every
// row; the fit that skips a row's exact zeros must land on the same bits.
// (stats.TestLogitSkipsZerosBitForBit holds the two fits against each other
// directly, but on a generated design of this shape: the real one is built by
// unexported code here, out of that package's reach.)
func TestEARFitPinned(t *testing.T) {
	const want = "64d2f93424778f514f8404c064d4b65f3fcdccd65146521611f52a604cf72d10"
	p, _ := newTestPlatform(t, 206)
	if got := earFitDigest(p.ear); got != want {
		t.Errorf("eAR fit digest %s, want %s", got, want)
	}
}

var (
	sinkPlatform *Platform
	sinkEAR      *earModel
)

// BenchmarkNew measures a cold training on the shared fixture world at 12 000
// log rows: vision training, engagement-log generation and the eAR fit — what
// the first New over a world pays, and the platform.new_s of a workload that
// builds one platform per world. It calls the training step itself, because
// New over the fixture reads the models it trained the first time.
func BenchmarkNew(b *testing.B) {
	f := sharedFixture(b)
	cfg := testConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ear, err := train(cfg.Seed, cfg.Training, f.pop, f.behave)
		if err != nil {
			b.Fatal(err)
		}
		sinkEAR = ear
	}
}

// BenchmarkNewSharedWorld measures a New over a world a platform with the
// same configuration was already built on: every shard of a fleet after the
// first, and every relaunch of one.
func BenchmarkNewSharedWorld(b *testing.B) {
	f := sharedFixture(b)
	if _, err := New(testConfig(1), f.pop, f.behave); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(testConfig(1), f.pop, f.behave)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlatform = p
	}
}
