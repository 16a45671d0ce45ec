package mathrand

import (
	"math"
	"testing"
)

// TestMix64 pins Mix64 and Unit on a table of (seed, slot) pairs, seeds and
// slots at both ends of their ranges included. Every replayed schedule in the
// tree (faults, chaos, privacy noise, day-retry jitter) reads these bits, so
// a changed value moves their pinned tests and the goldens behind them.
func TestMix64(t *testing.T) {
	for _, c := range []struct {
		seed int64
		slot uint64
		bits uint64
		unit float64
	}{
		{0, 0, 0xa706dd2f4d197e6f, 0.6524484863740322},
		{1, 0, 0x8b4fda8c892b50e, 0.03401170130434639},
		{1, 1, 0xe9fd6049d65af21e, 0.9140224628703029},
		{42, 7, 0x6eab8625df268fbc, 0.4323047487697754},
		{-3, 1 << 33, 0xe11015006baa146d, 0.8791516424204604},
		{1 << 62, math.MaxUint64, 0x41c84ca8f741e389, 0.2569625771059303},
		{math.MinInt64, 12345, 0x3a3c0db3a8a187d9, 0.22747884403418617},
	} {
		bits := Mix64(c.seed, c.slot)
		if bits != c.bits {
			t.Errorf("Mix64(%d, %d) = %#x, want %#x", c.seed, c.slot, bits, c.bits)
		}
		if u := Unit(bits); u != c.unit {
			t.Errorf("Unit(Mix64(%d, %d)) = %v, want %v", c.seed, c.slot, u, c.unit)
		}
	}
	if u := Unit(math.MaxUint64); u >= 1 {
		t.Errorf("Unit(2⁶⁴−1) = %v, want < 1", u)
	}
}

// TestShardStreamPinned pins output n of the SplitMix64 generator seeded with
// s, SplitMix64(s + n·Gamma): the delivery engine seeds shard n of a day
// seeded s with it, so a changed value moves every sharded delivery golden.
// Output 0 of seed 0 is the reference implementation's first output.
func TestShardStreamPinned(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		shard int
		want  uint64
	}{
		{0, 0, 0xe220a8397b1dcdaf},
		{1, 0, 0x910a2dec89025cc1},
		{1, 1, 0xbeeb8da1658eec67},
		{42, 3, 0x581ce1ff0e4ae394},
		{-7, 7, 0x1b4b0d3e2abd63b},
		{1 << 40, 63, 0xdb8ca00d5a3f0684},
		{math.MinInt64, 5, 0x4d7e6a268a67c5ff},
	} {
		if got := SplitMix64(uint64(c.seed) + Gamma*uint64(c.shard)); got != c.want {
			t.Errorf("SplitMix64(%d + %d·Gamma) = %#x, want %#x", c.seed, c.shard, got, c.want)
		}
	}
}
