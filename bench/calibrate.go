package main

import (
	"math"
	"sort"
	"time"
)

// The reference host is a small VM on a shared machine. Its neighbours slow
// memory-heavy code by up to half for minutes at a time while leaving
// register-bound loops untouched, and none of it shows as stolen time. A
// timing taken in such a stretch cannot be compared with one taken outside
// it, so the harness measures the host's pace while it measures the program:
// between units of work it runs a fixed set of small kernels (loads that hit
// L1, L2, the last-level cache and memory; a sort) and compares their CPU
// time with what they take on a quiet reference host. The mean ratio over a
// run is the run's slowdown, and every bounded timing is divided by it.
//
// The kernels live here, not in the program, allocate nothing and never
// change with the code under test, so a change to the program moves the
// program's time and leaves the yardstick alone.

const (
	calTableWords = 2 << 20 // 16 MB of uint64: beyond L2, inside the last-level cache
	calSortLen    = 10_000  // 80 KB of float64
	calInterval   = 100 * time.Millisecond
	calBurst      = 3 // samples at most per tick, after a unit that lasted that many intervals
)

// calKernels are the yardstick: name, and CPU milliseconds one call takes on
// the reference host at its quietest (the fastest tenth of the passes of a
// day there, each pass's own fastest tenth of samples). On another host the
// ratios only rescale every metric by a constant.
var calKernels = []struct {
	name  string
	refMs float64
	run   func(c *calibrator)
}{
	{"sweep 32 KB", 0.096, func(c *calibrator) { c.sweep(32 << 10) }},
	{"sweep 512 KB", 0.150, func(c *calibrator) { c.sweep(512 << 10) }},
	{"gather 256 KB", 0.051, func(c *calibrator) { c.gather(256 << 10) }},
	{"gather 16 MB", 0.880, func(c *calibrator) { c.gather(16 << 20) }},
	{"update 16 MB", 0.330, func(c *calibrator) { c.update() }},
	{"sort 80 KB", 0.735, func(c *calibrator) { c.sort() }},
}

// calibrator runs the yardstick and keeps what it measured.
type calibrator struct {
	table     []uint64
	vals, tmp []float64
	rng       uint64
	sink      uint64

	last      time.Time
	slowdowns []float64   // one per sample: geometric mean over the kernels of time / reference
	kernelMs  [][]float64 // per kernel, every sample's CPU milliseconds (for the run's account)
	spentCPU  float64     // seconds of CPU the samples themselves used
	spentWall time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calTableWords), vals: make([]float64, calSortLen), tmp: make([]float64, calSortLen), rng: 88172645463325252}
	c.kernelMs = make([][]float64, len(calKernels))
	for i := range c.table {
		c.table[i] = uint64(i) * 2654435761
	}
	for i := range c.vals {
		c.vals[i] = float64(c.next()%1000003) / 7
	}
	return c
}

func (c *calibrator) next() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// sweep reads 400 000 words in order from the first bytes of the table, with
// four independent sums: bound by how fast that level of cache delivers.
func (c *calibrator) sweep(bytes int) {
	arr := c.table[:bytes/8]
	var s0, s1, s2, s3 uint64
	for reps := (400_000 + len(arr) - 1) / len(arr); reps > 0; reps-- {
		for i := 0; i+3 < len(arr); i += 4 {
			s0 += arr[i]
			s1 += arr[i+1]
			s2 += arr[i+2]
			s3 += arr[i+3]
		}
	}
	c.sink += s0 ^ s1 ^ s2 ^ s3
}

// gather reads 100 000 words at random from the first bytes of the table,
// four independent loads at a time.
func (c *calibrator) gather(bytes int) {
	arr := c.table[:bytes/8]
	mask := uint64(len(arr) - 1)
	a, b, d, e := c.next(), c.next(), c.next(), c.next()
	var s uint64
	for i := 0; i < 25_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		d = d*6364136223846793005 + 1442695040888963407
		e = e*6364136223846793005 + 1442695040888963407
		s += arr[(a>>20)&mask] + arr[(b>>20)&mask] + arr[(d>>20)&mask] + arr[(e>>20)&mask]
	}
	c.sink += s
}

// update adds to 30 000 random words of the whole table: a read and a write
// per cache line touched.
func (c *calibrator) update() {
	mask := uint64(len(c.table) - 1)
	x := c.next()
	for i := 0; i < 30_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[x&mask] += x
	}
}

// sort orders a copy of the same 10 000 values: branches and L2 traffic.
func (c *calibrator) sort() {
	copy(c.tmp, c.vals)
	sort.Float64s(c.tmp)
	c.sink += uint64(c.tmp[0])
}

// sample runs every kernel once and records the host's slowdown now.
func (c *calibrator) sample() {
	begun, start := time.Now(), cpuSeconds()
	logSum := 0.0
	t := start
	for i, k := range calKernels {
		k.run(c)
		now := cpuSeconds()
		ms := max(now-t, 1e-6) * 1000 // a kernel that reads 0 fell between two ticks of a coarse clock
		c.kernelMs[i] = append(c.kernelMs[i], ms)
		logSum += math.Log(ms / k.refMs)
		t = now
	}
	c.slowdowns = append(c.slowdowns, math.Exp(logSum/float64(len(calKernels))))
	c.spentCPU += t - start
	c.spentWall += time.Since(begun)
	c.last = time.Now()
}

// tick takes one sample per calInterval that has passed since the last, at
// most calBurst: none after a 13 ms scenario that follows a sample, three
// after a day or an audit stage. Workloads call it between units of work,
// never inside a timed operation.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	for n := min(calBurst, int(time.Since(c.last)/calInterval)); n > 0; n-- {
		c.sample()
	}
}

// slowdown is the mean over the samples taken since mark (an earlier
// len(c.slowdowns)); 1 if there are none. The mean, not the median: a unit of
// work is long enough to be interrupted as often as the average sample is.
func (c *calibrator) slowdown(mark int) float64 {
	s := c.slowdowns[mark:]
	if len(s) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
