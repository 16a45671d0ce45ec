package main

import (
	"encoding/json"
)

// runSeconds is how long the driver lets one pass measure (BENCHMARK.json's
// run_seconds): long enough for ~500 serve scenarios, four audit repetitions
// and ~30 days, short enough that every pass the contract makes (4 + 22 per
// workload, each with its set-ups and gates) fits its time cap with a margin
// for a host that runs a third slower than the reference.
const runSeconds = 20

// manifest is BENCHMARK.json: the benchmark's contract with its driver.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// buildManifest renders the workload and metric tables of this package as
// BENCHMARK.json; `bench manifest > BENCHMARK.json` regenerates the file and
// a unit test fails when the two drift apart.
func buildManifest() []byte {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	out, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return append(out, '\n')
}
