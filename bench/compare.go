package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is the distance between the first and third quartile of xs as a
// share of their median — quartiles as Python's statistics.quantiles(xs, n=4)
// computes them. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		// Exclusive method: the i-th of 4 cut points sits at rank i*(n+1)/4.
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// judge compares the new runs of one metric against the old ones. The change
// is worse (better) when the new median is worse (better) than the old by
// more than the bound. Where either side's run-to-run spread is wider than
// the bound the comparison is unresolved, unless every new run reads better
// than every old run.
func judge(d metricDef, old, new []float64) (verdict string, ratio float64) {
	oldMed, newMed := median(old), median(new)
	if oldMed == 0 {
		return verdictUnresolved, 0
	}
	ratio = newMed / oldMed
	worsening := ratio - 1 // share of the old median by which the metric got worse
	beats := func(a, b float64) bool { return a < b }
	if d.Better == "higher" {
		worsening = 1 - ratio
		beats = func(a, b float64) bool { return a > b }
	}
	if max(spread(old), spread(new)) > d.Bound {
		for _, n := range new {
			for _, o := range old {
				if !beats(n, o) {
					return verdictUnresolved, ratio
				}
			}
		}
		return verdictBetter, ratio
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse, ratio
	case worsening < -d.Bound:
		return verdictBetter, ratio
	}
	return verdictSame, ratio
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// cmdCompare reports, one row per workload, every end-to-end metric of new
// against old: the ratio of medians with its base, and the verdict against
// the bound fixed in BENCHMARK.json. It exits 1 on any "worse" and on any
// rise in the share of failed operations.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	old, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	new, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := false
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], new.Workloads[wl.name]
		if o == nil || n == nil {
			continue
		}
		fmt.Printf("%-13s", wl.name)
		for _, d := range endToEnd {
			verdict, ratio := judge(d, o.EndToEnd[d.Name], n.EndToEnd[d.Name])
			fmt.Printf(" | %s %.3fx of %.4g %s: %s", d.Name, ratio, median(o.EndToEnd[d.Name]), d.Unit, verdict)
			bad = bad || verdict == verdictWorse
		}
		oldShare, newShare := failedShare(o), failedShare(n)
		fmt.Printf(" | failed_share %.4g (was %.4g)\n", newShare, oldShare)
		bad = bad || newShare > oldShare
	}
	if bad {
		return 1
	}
	return 0
}

func failedShare(w *workloadResult) float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}
