// Command bench is this repository's benchmark: four workloads that drive the
// advertiser's loop — mutate, deliver a day, read insights — through
// successively deeper parts of the stack, six end-to-end metrics every
// workload reports, and a traced pass that yields the per-layer metrics.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory explains the workloads, the metrics and how they interact.
//
// One measured run of one workload (what BENCHMARK.json's command invokes):
//
//	go run ./bench --workload serve --seed 11 --seconds 20 --trace 0
//
// Every workload, both passes, one result file with a host block:
//
//	go run ./bench run [-seed 11] [-runs 1] [-quick]
//
// Two result files against the bounds fixed in BENCHMARK.json:
//
//	go run ./bench compare old.json new.json
//
// BENCHMARK.json itself, from the tables in this package:
//
//	go run ./bench manifest > BENCHMARK.json
//
// Every layer is measured from outside: by timing calls into the program's
// public functions and through the seams it already exposes (client and
// coordinator transports, the persister option, an http.Handler wrapped
// around a server's handler, the platform's observer registry).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A pass builds its world at least runConfig.setups times, and keeps
// rebuilding until setupBudget has passed or maxSetups builds are done.
const (
	setupBudget = 3 * time.Second
	maxSetups   = 9
)

// runConfig is one measured run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the world is built at least; setup_s is the
	// median build's CPU time. 1 (smoke mode) builds exactly once.
	setups int
	outDir string
}

// runCtx is what a workload's set-up receives: the run's configuration and
// the sinks its wrappers and scenarios record into.
type runCtx struct {
	cfg runConfig
	rec *recorder
	ser *series
	tr  *tracer // nil unless cfg.trace
	// stealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the measured phase, and slowdown the host's pace
	// against the quiet reference host over the same phase (calibrate.go):
	// why a run on a shared host can read slow.
	stealPct float64
	slowdown float64
	// layer holds per-layer values measured during set-up (generation and
	// build rates, platform training time); the last set-up wins.
	layer map[string]float64
}

// scratch is a context with the same configuration and throwaway sinks, for
// warm-up and reference traffic that must not reach the run's samples.
func (rc *runCtx) scratch() *runCtx {
	return &runCtx{cfg: rc.cfg, rec: &recorder{}, ser: newSeries()}
}

// env is a workload after set-up.
type env interface {
	// warm runs untimed work until caches and buffers are at steady state.
	warm() error
	// measure runs units of work, starting a new one only before deadline.
	measure(deadline time.Time) error
	// verify runs the workload's output-correctness gates into the recorder.
	verify() error
	// layers adds the per-layer metrics the workload measured (traced pass).
	layers(out map[string]float64)
	close()
}

type workload struct {
	name string
	why  string
	// rssUnits is the amount of work after which peak_rss_mb is read: a
	// server's state grows with every scenario it has served, so a peak read
	// when the clock runs out would rise and fall with throughput. Each
	// count is reached in a quarter to half of a pass on the reference host.
	rssUnits int
	// follows is how strongly the workload's CPU time follows the host's
	// slowdown as the calibration kernels read it (calibrate.go): its timings
	// are divided by slowdown^follows. 1 where the two move together. The
	// sequential day moves further than any mix of the kernels does: log-log
	// slope 1.7 over 14 same-seed passes while the host went from 1.1x to
	// 1.4x, 1.9 over 40 passes of four ten-seed sets, 1.0 in a stretch when
	// everything ran slow. 1.5 takes most of that out without overshooting
	// its mutations and reads, whose slope is 1 (README, "How the timings
	// are made steady").
	follows float64
	setup   func(rc *runCtx) (env, error)
}

var workloads = []workload{
	{onAudit, "the paper's audit through the public adaudit API: mostly gan/face/stats science code plus small delivery days over HTTP, so engine or serving changes should barely move it", 2, 1, setupAudit},
	{onDay, "sequential 40000-user days on a 1M-user world, in process: the auction kernel, CSR eligibility build and pacing do all the work, serving code none", 10, 1.5, setupDay},
	{onServe, "one marketing.Server with WAL store and privacy armed, 1 closed-loop client: wire, idempotency, PII matching, WAL commit and the privacy pass dominate, delivery is small", 200, 1, setupServe},
	{onFleet, "coordinator and router over 2 shard backends, 1 closed-loop client: tick barrier, per-tick RPC, CRUD fan-out and merge-then-privatize, which no other workload runs", 30, 1, setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "manifest":
			os.Stdout.Write(buildManifest())
			return
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

// cmdOne is the contract entry point: one workload, one pass, one JSON line.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	quick := fs.Bool("quick", false, "smoke mode: build the world once instead of three times")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: wl.name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3, outDir: *outDir}
	if *quick {
		cfg.setups = 1
	}
	res, err := runWorkload(wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload builds the world (several times, for a steady setup_s), warms
// it, measures for cfg.seconds, checks the outputs and assembles the metrics.
func runWorkload(wl workload, cfg runConfig) (res *result, err error) {
	// The reference host has two cores; pinning keeps a larger host from
	// changing what the sharded engine and the two-client loops measure.
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	cal := newCalibrator()
	rc := &runCtx{cfg: cfg, rec: &recorder{cal: cal}, ser: newSeries(), layer: map[string]float64{}}
	if cfg.trace {
		rc.tr = newTracer()
	}

	// Short set-ups are repeated more often: their median is steadier, and
	// three builds of a 0.2 s world would be mostly first-build effects.
	var setupS, setupCPU []float64
	var e env
	for begun := time.Now(); len(setupS) < cfg.setups || (cfg.setups > 1 && len(setupS) < maxSetups && time.Since(begun) < setupBudget); {
		if e != nil {
			// Collect the discarded world before building the next, or the
			// pass's peak RSS would count however many of them the collector
			// had not got to yet.
			e.close()
			e = nil
			runtime.GC()
		}
		start, cpuStart := time.Now(), cpuSeconds()
		if e, err = wl.setup(rc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-cpuStart)
		cal.tick() // the host's pace while the worlds were built
	}
	defer e.close()
	setupSlowdown := cal.slowdown(0)

	if err := e.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", wl.name, err)
	}
	// Warm-up traffic went through the same sinks; measure from clean ones.
	*rc.rec = recorder{rssAfter: wl.rssUnits, cal: cal}
	rc.ser.reset()
	runtime.GC() // every pass starts measuring from a collected heap
	calMark := len(cal.slowdowns)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stolenBefore, allBefore := cpuJiffies()
	start := time.Now()
	if err := e.measure(start.Add(time.Duration(cfg.seconds * float64(time.Second)))); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	wall := time.Since(start)
	rc.slowdown = cal.slowdown(calMark)
	runtime.ReadMemStats(&after)
	if stolen, all := cpuJiffies(); all > allBefore {
		rc.stealPct = 100 * float64(stolen-stolenBefore) / float64(all-allBefore)
	}

	if err := e.verify(); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", wl.name, err)
	}

	rec := rc.rec
	var ops int
	for v := range rec.verbs {
		ops += len(rec.verbs[v])
		rec.check(len(rec.verbs[v]) > 0, "no %s operation completed", verbNames[v])
	}
	rec.check(len(rec.units) > 0, "no unit of work completed")

	values := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		// Timings are divided by the host's slowdown while they were taken
		// (calibrate.go): CPU time at the reference host's quiet pace.
		values["setup_s"] = median(setupCPU) / setupSlowdown
		if values["peak_rss_mb"] = rec.rssMB; rec.rssMB == 0 { // the pass ended before rssUnits units
			values["peak_rss_mb"] = peakRSSMB()
		}
		pace := math.Pow(rc.slowdown, wl.follows)
		values["unit_cpu_s"] = median(rec.unitCPU) / pace
		for v, name := range verbNames {
			values[name+"_cpu_ms"] = median(rec.verbCPU[v]) / pace
		}
	} else {
		defs = perLayer
		for k, v := range rc.layer {
			values[k] = v
		}
		values["audit_s"] = median(rec.units)
		values["req_per_s"] = float64(ops) / wall.Seconds()
		for v, name := range verbNames {
			values[name+"_p50_ms"] = median(rec.verbs[v])
		}
		values["host.cpu_stolen_pct"] = rc.stealPct
		values["host.slowdown"] = rc.slowdown
		values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		values["mutation_p99_ms"] = percentile(sorted(rec.verbs[verbMutation]), 99)
		values["deliver_p90_ms"] = percentile(sorted(rec.verbs[verbDeliver]), 90)
		values["insights_p99_ms"] = percentile(sorted(rec.verbs[verbInsights]), 99)
		e.layers(values)
		traceMetrics(rc, values)
		path := filepath.Join(cfg.outDir, "trace-"+wl.name+".jsonl")
		if err := rc.tr.write(path); err != nil {
			return nil, err
		}
		values["failed_share"] = float64(rec.failed) / float64(rec.attempted)
	}

	res = &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	report(os.Stderr, wl, cfg, rc, wall, median(setupS), res)
	return res, nil
}

// traceMetrics checks the span bookkeeping of the traced pass and reports how
// well blocking-path self times account for their root spans.
func traceMetrics(rc *runCtx, values map[string]float64) {
	spans := rc.tr.spans
	values["bench.trace_spans"] = float64(len(spans))
	var shares []float64
	orphans := 0
	for _, ss := range byTrace(spans) {
		byName, root, o := blockingPath(ss)
		orphans += o
		if root.dur() <= 0 {
			continue
		}
		var sum int64
		for _, ns := range byName {
			sum += ns
		}
		shares = append(shares, 100*float64(sum)/float64(root.dur()))
	}
	rc.rec.check(len(spans) > 0, "traced pass recorded no span")
	rc.rec.check(orphans == 0, "%d spans have no parent in their trace", orphans)
	values["bench.trace_self_sum_pct"] = median(shares)
}

// overheadPct is the traced pass's cost: the median traced unit over the
// median untraced unit, as a percentage above it.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}

// report prints the human-readable account of a run to w: raw-sample
// summaries with their sample counts, and every metric by name and unit.
func report(w *os.File, wl workload, cfg runConfig, rc *runCtx, wall time.Duration, setupWallS float64, res *result) {
	h := host()
	fmt.Fprintf(w, "bench %s seed=%d trace=%v measured=%.2fs host: %d cores GOMAXPROCS=%d %s %s/%s kernel %s; while measuring %.1f%% of CPU time was stolen and the host ran %.3fx slower than the quiet reference (%d calibration samples)\n",
		wl.name, cfg.seed, cfg.trace, wall.Seconds(), h.Cores, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Kernel, rc.stealPct, rc.slowdown, len(rc.rec.cal.slowdowns))
	for v, name := range verbNames {
		s := summarize(rc.rec.verbs[v])
		fmt.Fprintf(w, "  %-9s n=%-6d wall p50=%.4fms p%g=%.4fms  cpu p50=%.4fms over %d units\n",
			name, s.N, s.P50, s.TailP, s.Tail, median(rc.rec.verbCPU[v]), len(rc.rec.verbCPU[v]))
	}
	u := summarize(rc.rec.units)
	fmt.Fprintf(w, "  %-9s n=%-6d wall p50=%.4fs  cpu p50=%.4fs;  set-up wall p50=%.4fs\n", "unit", u.N, u.P50, median(rc.rec.unitCPU), setupWallS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := res.Metrics[name]; m.Value != 0 {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprint(w, "  calibration kernels, CPU ms p10 (reference):")
	for i, k := range calKernels {
		fmt.Fprintf(w, " %s %.3f (%.3f);", k.name, percentile(sorted(rc.rec.cal.kernelMs[i]), 10), k.refMs)
	}
	fmt.Fprintln(w)
	for _, p := range rc.rec.problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}
