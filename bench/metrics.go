package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one number the benchmark reports. The end-to-end table and
// the per-layer table below are the single source of the names; BENCHMARK.json
// repeats them (a unit test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero for
	// per-layer metrics, which carry no bound.
	Bound float64
	// Moves records, for a per-layer metric, the end-to-end metric it is
	// predicted to move and on which workload.
	Moves string
}

// The end-to-end metrics. Every workload reports every one of them: each
// workload is the advertiser's loop (mutate, deliver a day, read insights)
// through a different depth of the stack, so the same six numbers exist
// everywhere and none is ever zero.
//
// The timings are CPU time of the benchmark process (client, servers under
// test and runtime together, user plus system), not wall-clock time. The
// reference host is a small shared VM whose hypervisor takes a varying 0-35 %
// of the wall clock for other guests; the kernel accounts a process's CPU
// time net of that, so CPU time repeats from run to run where wall-clock time
// does not. Every workload has one operation in flight at a time, so the CPU
// time between two reads of the clock belongs to the operations issued
// between them. The wall-clock figures are per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "unit_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mutation_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "deliver_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "insights_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

const (
	onAudit = "audit_bench"
	onDay   = "day_40k"
	onServe = "serve"
	onFleet = "fleet_2shard"

	// goldenDayW2 keys the pinned digest of day_40k's sharded day.
	goldenDayW2 = "day_40k_w2"
)

func lower(name, unit, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Moves: moves}
}

func higher(name, unit, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "higher", Moves: moves}
}

// The per-layer metrics, grouped by the module they measure. A workload that
// bypasses a layer reports 0 for it.
var perLayer = func() []metricDef {
	ms := []metricDef{
		// voter / population / platform set-up
		higher("voter.generate_records_per_s", "1/s", "setup_s on serve, fleet_2shard, audit_bench"),
		higher("population.build_users_per_s", "1/s", "setup_s on serve, fleet_2shard, audit_bench"),
		higher("population.stream_users_per_s", "1/s", "setup_s on day_40k"),
		lower("population.bytes_per_user", "B", "peak_rss_mb on day_40k"),
		lower("platform.new_s", "s", "setup_s on every workload"),
		lower("platform.audience_match_us_per_hash", "us", "mutation_cpu_ms on serve, fleet_2shard"),

		// platform delivery
		lower("platform.day_prepare_ms", "ms", "deliver_cpu_ms on day_40k"),
		lower("platform.day_tick_ms_p50", "ms", "deliver_cpu_ms on day_40k"),
		lower("platform.day_finish_ms", "ms", "deliver_cpu_ms on day_40k"),
		lower("platform.pacing_us_per_tick", "us", "deliver_cpu_ms on day_40k"),
		lower("platform.ns_per_auction", "ns", "deliver_cpu_ms on day_40k"),
		lower("platform.w2_merge_ms_per_day", "ms", "day_w2_user_ticks_per_s on day_40k"),
		higher("platform.w2_speedup", "ratio", "day_w2_user_ticks_per_s on day_40k"),
		lower("platform.auctions_per_day", "count", "deliver_cpu_ms on day_40k (exact, must repeat)"),
		lower("platform.impressions_per_day", "count", "deliver_cpu_ms on day_40k (exact, must repeat)"),
		lower("platform.day_alloc_mb", "MB", "peak_rss_mb and deliver_cpu_ms on day_40k"),
		lower("platform.insights_read_us", "us", "insights_cpu_ms on serve"),
		higher("day_seq_user_ticks_per_s", "1/s", "deliver_cpu_ms on day_40k"),
		higher("day_w2_user_ticks_per_s", "1/s", "the sharded kernel at workers=2 on day_40k: wall clock, so no bounded metric carries it"),
		lower("runtime.gc_pause_ms", "ms", "every tail metric and unit_cpu_s, every workload"),

		// core / gan / stats
		lower("core.stock_s", "s", "unit_cpu_s on audit_bench"),
		lower("core.stock_capped_s", "s", "unit_cpu_s on audit_bench"),
		lower("core.synthetic_s", "s", "unit_cpu_s on audit_bench"),
		lower("core.employment_s", "s", "unit_cpu_s on audit_bench"),
		lower("core.poverty_s", "s", "unit_cpu_s on audit_bench"),
		lower("core.validate_s", "s", "unit_cpu_s on audit_bench"),
		lower("gan.pipeline_s", "s", "unit_cpu_s on audit_bench"),
		lower("stats.table4_ms", "ms", "unit_cpu_s on audit_bench"),
		lower("stats.table5_ms", "ms", "unit_cpu_s on audit_bench"),
		lower("marketing.audit_http_s", "s", "unit_cpu_s on audit_bench"),
		lower("marketing.audit_http_requests", "count", "unit_cpu_s on audit_bench"),
		higher("core.shape_checks_passed", "count", "unit_cpu_s on audit_bench (of 16)"),
	}
	// marketing
	for _, op := range advertiserOps {
		ms = append(ms, lower("marketing.server_ms."+op, "ms", verbOf(op)+"_cpu_ms on serve, fleet_2shard"))
	}
	for _, op := range advertiserOps {
		ms = append(ms, lower("marketing.wire_overhead_ms."+op, "ms", verbOf(op)+"_cpu_ms on serve, fleet_2shard"))
	}
	return append(ms,
		lower("marketing.request_bytes.create_audience", "B", "mutation_cpu_ms on serve, fleet_2shard (first traced scenario; exact)"),
		lower("marketing.response_bytes.insights", "B", "insights_cpu_ms on serve, fleet_2shard (first traced scenario; exact)"),
		lower("marketing.retries", "count", "unit_cpu_s on serve, fleet_2shard"),
		lower("marketing.idempotent_replays", "count", "unit_cpu_s on serve, fleet_2shard"),

		// store
		lower("store.barrier_wait_ms_p50", "ms", "mutation_p50_ms on serve (waiting, so wall clock only)"),
		lower("store.barrier_wait_ms_p99", "ms", "mutation_p99_ms on serve"),
		lower("store.records_appended", "count", "mutation_cpu_ms on serve (exact per scenario)"),
		lower("store.bytes_appended", "B", "mutation_cpu_ms on serve"),
		lower("store.group_commits", "count", "mutation_cpu_ms on serve"),
		higher("store.records_per_commit", "ratio", "mutation_cpu_ms on serve"),
		lower("store.fsyncs", "count", "mutation_p99_ms on serve"),
		lower("store.snapshots", "count", "mutation_p99_ms on serve"),
		lower("store.snapshot_ms", "ms", "mutation_p99_ms on serve"),
		lower("store.recover_ms", "ms", "setup_s on serve"),

		// privacy
		lower("privacy.apply_us", "us", "insights_cpu_ms on serve, fleet_2shard"),
		lower("privacy.suppressed_cells_per_response", "count", "insights_cpu_ms on serve, fleet_2shard"),

		// coordinator
		lower("coordinator.begin_rpc_ms_p50", "ms", "deliver_cpu_ms on fleet_2shard"),
		lower("coordinator.tick_rpc_ms_p50", "ms", "deliver_cpu_ms on fleet_2shard"),
		lower("coordinator.tick_rpc_ms_p99", "ms", "deliver_p90_ms on fleet_2shard"),
		lower("coordinator.finish_rpc_ms_p50", "ms", "deliver_cpu_ms on fleet_2shard"),
		lower("coordinator.shard_tick_busy_ms_p50", "ms", "deliver_cpu_ms on fleet_2shard"),
		lower("coordinator.tick_overhead_ms_p50", "ms", "deliver_cpu_ms on fleet_2shard"),
		lower("coordinator.tick_straggler_ms_p50", "ms", "deliver_p50_ms on fleet_2shard (waiting, so wall clock only)"),
		lower("coordinator.rpcs_per_day", "count", "deliver_cpu_ms on fleet_2shard (exactly 100)"),
		lower("coordinator.tick_request_bytes", "B", "deliver_cpu_ms on fleet_2shard (first traced day; exact)"),
		lower("coordinator.tick_response_bytes", "B", "deliver_cpu_ms on fleet_2shard (first traced day; exact)"),
		lower("coordinator.crud_fanout_ms_p50", "ms", "mutation_cpu_ms on fleet_2shard"),
		lower("coordinator.insights_merge_ms_p50", "ms", "insights_cpu_ms on fleet_2shard"),
		lower("coordinator.day_restarts", "count", "failed_share on fleet_2shard (must be 0)"),
		lower("coordinator.day_retries", "count", "failed_share on fleet_2shard (must be 0)"),
		lower("coordinator.fleet_vs_inproc_deliver_ratio", "ratio", "deliver_cpu_ms on fleet_2shard"),

		// wall clock, as the client observed it: what the advertiser waits
		// for, and on a shared host too unsteady to carry a bound (see README)
		lower("audit_s", "s", "median wall of one unit of work; follows unit_cpu_s plus waiting, every workload"),
		higher("req_per_s", "1/s", "advertiser operations per second of wall; follows unit_cpu_s, every workload"),
		lower("mutation_p50_ms", "ms", "follows mutation_cpu_ms plus WAL and fan-out waiting, every workload"),
		lower("deliver_p50_ms", "ms", "follows deliver_cpu_ms, less what runs in parallel, every workload"),
		lower("insights_p50_ms", "ms", "follows insights_cpu_ms, every workload"),
		lower("host.cpu_stolen_pct", "%", "share of CPU time the hypervisor gave to other guests while measuring: the wall-clock metrics carry it"),
		lower("host.slowdown", "ratio", "the calibration kernels' CPU time over the quiet reference host's: every bounded timing is divided by it"),

		// tails and shares the contract cannot carry as end-to-end metrics
		// (see README: too few samples on some workload, or zero by design)
		lower("mutation_p99_ms", "ms", "client-observed tail, every workload"),
		lower("deliver_p90_ms", "ms", "client-observed tail, every workload"),
		lower("insights_p99_ms", "ms", "client-observed tail, every workload"),
		lower("failed_share", "ratio", "failed over attempted, every workload (must be 0)"),

		// harness
		lower("bench.trace_overhead_pct", "%", "traced minus untraced unit time, every workload"),
		lower("bench.trace_self_sum_pct", "%", "blocking-path self times over the root span (100 when spans nest)"),
		lower("bench.trace_spans", "count", "spans written to bench/out/trace-<workload>.jsonl"),
	)
}()

// advertiserOps are the API operations of one advertiser scenario, in order.
var advertiserOps = []string{"create_audience", "create_campaign", "create_ad", "deliver", "insights"}

// Verbs group the operations the way the end-to-end metrics do.
const (
	verbMutation = iota
	verbDeliver
	verbInsights
	numVerbs
)

var verbNames = [numVerbs]string{"mutation", "deliver", "insights"}

func verbIndex(op string) int {
	switch op {
	case "deliver":
		return verbDeliver
	case "insights":
		return verbInsights
	}
	return verbMutation
}

func verbOf(op string) string { return verbNames[verbIndex(op)] }

// percentile returns the p-th percentile (0..100) of sorted samples, linearly
// interpolated between ranks. It is computed from the raw samples, never from
// histogram buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// percentileLadder is the set of tail percentiles a summary may report, each
// with the share of samples beyond it in thousandths (integers, so that 100
// samples have exactly ten beyond p90).
var percentileLadder = []struct {
	p              float64
	beyondPerMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it; with fewer than 40 samples only the median is
// supportable and it returns 50.
func tailPercentile(n int) float64 {
	for _, rung := range percentileLadder {
		if n*rung.beyondPerMille >= 10*1000 {
			return rung.p
		}
	}
	return 50
}

// summary is the raw-sample digest printed for every latency series.
type summary struct {
	N     int
	P50   float64
	TailP float64 // the percentile Tail is taken at
	Tail  float64
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	tp := tailPercentile(len(s))
	return summary{N: len(s), P50: percentile(s, 50), TailP: tp, Tail: percentile(s, tp)}
}

// hostBlock identifies the machine a result was taken on.
type hostBlock struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
}

func host() hostBlock {
	kernel := ""
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostBlock{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     kernel,
	}
}

// cpuSeconds is the CPU time this process has used so far, user plus system,
// all threads. The kernel accounts it net of the time the hypervisor gave to
// other guests, which is why the bounded metrics are read off this clock.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// cpuJiffies reads the host's aggregate CPU line from /proc/stat: the time
// stolen by the hypervisor and the total, in clock ticks; zeros where /proc
// is missing.
func cpuJiffies() (stolen, all int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			all += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return stolen, all
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB. Where
// /proc is missing it falls back to the Go runtime's view of memory obtained
// from the OS, which is never zero.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
