package report

import (
	"fmt"
	"strings"
)

// ServingRow is one operation's row in the load-test summary table: request
// count, errors, and the latency quantiles the serving trajectory tracks.
type ServingRow struct {
	Op       string
	Requests int64
	Errors   int64
	P50Ms    float64
	P90Ms    float64
	P99Ms    float64
	MaxMs    float64
}

// ServingResilience carries the fault/retry accounting of a load run for the
// summary's resilience line: client-side injected faults and retries, and
// server-side shed requests.
type ServingResilience struct {
	Retries        int64
	RequestsShed   int64
	FaultsInjected int64
}

func (r ServingResilience) any() bool {
	return r.Retries != 0 || r.RequestsShed != 0 || r.FaultsInjected != 0
}

// ServingSummary renders the adload human-readable result: one aligned row
// per operation plus the run totals line, in the style of the paper-table
// formatters above. A resilience line is appended when any retries, shed
// requests, or injected faults occurred.
func ServingSummary(title string, rows []ServingRow, wallSeconds, throughputRPS float64, totalErrors int64, res ServingResilience) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-18s %9s %7s %10s %10s %10s %10s\n",
		"Operation", "Requests", "Errors", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9d %7d %10.3f %10.3f %10.3f %10.3f\n",
			r.Op, r.Requests, r.Errors, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	}
	fmt.Fprintf(&b, "%-18s %.2fs wall, %.1f req/s, %d errors\n", "total", wallSeconds, throughputRPS, totalErrors)
	if res.any() {
		fmt.Fprintf(&b, "%-18s %d injected faults, %d retries, %d shed\n",
			"resilience", res.FaultsInjected, res.Retries, res.RequestsShed)
	}
	return b.String()
}
