package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileInterpolatesRawSamples(t *testing.T) {
	xs := sorted([]float64{40, 10, 30, 20})
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {75, 32.5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := spread([]float64{3, 1, 2}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of three = %g, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{Trace: 1, ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{Trace: 1, ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
	}
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	want := map[int64]int64{
		1: 100 - (50 + 10), // a∪b covers 10..60, c covers 90..100
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
	}
	for _, s := range spans {
		if self := s.dur() - covered(s, kids[s.ID]); self != want[s.ID] {
			t.Errorf("self time of span %d = %d, want %d", s.ID, self, want[s.ID])
		}
	}
}

func TestBlockingPathSumsToRoot(t *testing.T) {
	// A router request fanning out two parallel shard RPCs, twice.
	spans := []span{
		{Trace: 7, ID: 1, Name: "router deliver", Start: 0, End: 1000},
		{Trace: 7, ID: 2, Parent: 1, Name: "rpc tick", Start: 100, End: 400},
		{Trace: 7, ID: 3, Parent: 1, Name: "rpc tick", Start: 110, End: 450}, // straggler
		{Trace: 7, ID: 4, Parent: 3, Name: "shard tick", Start: 150, End: 420},
		{Trace: 7, ID: 5, Parent: 2, Name: "shard tick", Start: 120, End: 380},
		{Trace: 7, ID: 6, Parent: 1, Name: "rpc tick", Start: 500, End: 900},
		{Trace: 7, ID: 7, Parent: 99, Name: "lost", Start: 0, End: 5},
	}
	byName, root, orphans := blockingPath(spans)
	if root.ID != 1 || orphans != 1 {
		t.Fatalf("root %d orphans %d, want root 1 and 1 orphan", root.ID, orphans)
	}
	var sum int64
	for _, ns := range byName {
		sum += ns
	}
	if sum != root.dur() {
		t.Errorf("blocking-path times sum to %d, root lasted %d: %v", sum, root.dur(), byName)
	}
	// Only the straggler (span 3) is descended into: its shard span counts,
	// the faster shard's does not.
	if byName["shard tick"] != 270 {
		t.Errorf("shard tick on the blocking path = %d, want 270", byName["shard tick"])
	}
	if byName["overlap"] != 10 { // 100..110, before the straggler started
		t.Errorf("overlap = %d, want 10", byName["overlap"])
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lowerBetter := metricDef{Name: "deliver_cpu_ms", Better: "lower", Bound: 0.1}
	higherBetter := metricDef{Name: "day_seq_user_ticks_per_s", Better: "higher", Bound: 0.1}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v * 1.005, v * 0.995} }
	for _, tc := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"slower by 20%", lowerBetter, steady(100), steady(120), verdictWorse},
		{"faster by 20%", lowerBetter, steady(100), steady(80), verdictBetter},
		{"within the bound", lowerBetter, steady(100), steady(105), verdictSame},
		{"throughput down 20%", higherBetter, steady(1000), steady(800), verdictWorse},
		{"throughput up 20%", higherBetter, steady(1000), steady(1200), verdictBetter},
		{"noisy and overlapping", lowerBetter, []float64{80, 100, 120, 140, 90}, []float64{85, 95, 130, 150, 100}, verdictUnresolved},
		{"noisy but every run better", lowerBetter, []float64{80, 100, 120, 140, 90}, []float64{40, 50, 60, 70, 45}, verdictBetter},
		{"single runs", lowerBetter, []float64{100}, []float64{130}, verdictWorse},
	} {
		if got, _ := judge(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsOneOnWorseOrMoreFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, deliver float64, failed int) string {
		f := resultFile{Schema: resultSchema, Workloads: map[string]*workloadResult{
			onServe: {Correct: failed == 0, Attempted: 100, Failed: failed, EndToEnd: map[string][]float64{}},
		}}
		for _, d := range endToEnd {
			f.Workloads[onServe].EndToEnd[d.Name] = []float64{10}
		}
		f.Workloads[onServe].EndToEnd["deliver_cpu_ms"] = []float64{deliver}
		data, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 0)
	if code := cmdCompare([]string{base, write("same.json", 10.5, 0)}); code != 0 {
		t.Errorf("unchanged run: exit %d, want 0", code)
	}
	if code := cmdCompare([]string{base, write("slow.json", 14, 0)}); code != 1 {
		t.Errorf("slower deliver: exit %d, want 1", code)
	}
	if code := cmdCompare([]string{base, write("failing.json", 10, 1)}); code != 1 {
		t.Errorf("rise in failed share: exit %d, want 1", code)
	}
}

func TestScenarioGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	pool := make([]string, 500)
	for i := range pool {
		pool[i] = strings.Repeat("ab", 16) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	sequence := func(seed int64) []byte {
		var buf bytes.Buffer
		for idx := 0; idx < 5; idx++ {
			spec := genScenario(seed, idx, pool, 50, adsPerScenario)
			buf.Write(spec.wire())
		}
		return buf.Bytes()
	}
	if !bytes.Equal(sequence(11), sequence(11)) {
		t.Error("same seed produced different request sequences")
	}
	if bytes.Equal(sequence(11), sequence(12)) {
		t.Error("different seeds produced the same request sequence")
	}
	spec := genScenario(11, 0, pool, 50, adsPerScenario)
	if len(spec.Audience.PIIHashes) != 50 || len(spec.Ads) != adsPerScenario {
		t.Errorf("scenario has %d hashes and %d ads, want 50 and %d", len(spec.Audience.PIIHashes), len(spec.Ads), adsPerScenario)
	}
}

func TestLinkSurvivesTheHeader(t *testing.T) {
	l := link{trace: 42, parent: 7}
	got, ok := parseLink(l.header())
	if !ok || got != l {
		t.Errorf("parseLink(%q) = %+v, %v", l.header(), got, ok)
	}
	for _, bad := range []string{"", "42", "a:b", "1:"} {
		if _, ok := parseLink(bad); ok {
			t.Errorf("parseLink(%q) accepted a malformed header", bad)
		}
	}
}

// TestManifestMeetsTheContract checks the tables of this package against the
// benchmark contract's limits, and BENCHMARK.json against the tables.
func TestManifestMeetsTheContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's charset", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name("end-to-end metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's charset", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		name("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Moves == "" {
			t.Errorf("metric %s does not say which end-to-end metric it should move", d.Name)
		}
	}

	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, buildManifest()) {
		t.Error("BENCHMARK.json differs from the tables in this package; regenerate it with `go run ./bench manifest > BENCHMARK.json`")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(file))
	}
}

func TestGoldenCoversTheGatedWorkloads(t *testing.T) {
	for _, key := range []string{onAudit, onDay, goldenDayW2} {
		if len(golden.Digests[key]) != 64 {
			t.Errorf("golden.json has no SHA-256 digest for %s", key)
		}
	}
}

func TestCalibratorSamplesAndAverages(t *testing.T) {
	c := newCalibrator()
	c.tick() // the first tick takes a full burst
	if len(c.slowdowns) != calBurst {
		t.Fatalf("first tick took %d samples, want %d", len(c.slowdowns), calBurst)
	}
	c.tick() // nothing is due right after a sample
	if len(c.slowdowns) != calBurst {
		t.Errorf("a tick right after a sample took %d more", len(c.slowdowns)-calBurst)
	}
	for i, s := range c.slowdowns {
		if s <= 0 {
			t.Errorf("sample %d: slowdown %g", i, s)
		}
	}
	if c.spentCPU <= 0 || c.spentWall <= 0 {
		t.Errorf("samples cost %g s of CPU and %v of wall, want both positive", c.spentCPU, c.spentWall)
	}
	c.slowdowns = []float64{1, 2, 4, 6}
	if got := c.slowdown(2); got != 5 {
		t.Errorf("slowdown since mark 2 = %g, want the mean 5", got)
	}
	if got := c.slowdown(4); got != 1 {
		t.Errorf("slowdown with no sample since the mark = %g, want 1", got)
	}
}
