package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// ReportSchema tags the JSON layout; ReadReport refuses any other.
const ReportSchema = "adaudit/bench-serving/v1"

// PrivacyReport is the insights-privacy block of a load report: the policy
// the run was told the target enforces (level/k/epsilon) and the
// privatization the runner observed in responses. A serving-perf comparison
// across privacy levels reads the insights-op latency next to this block —
// the "privacy tax" on the reporting path.
type PrivacyReport struct {
	Level   string  `json:"level"`
	K       int     `json:"k,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// PrivatizedResponses counts insights responses carrying a privacy
	// block; SuppressedCellsTotal sums the breakdown cells they withheld.
	PrivatizedResponses  int64 `json:"privatized_responses"`
	SuppressedCellsTotal int64 `json:"suppressed_cells_total"`
}

// OpReport is one operation's client-side accounting.
type OpReport struct {
	Requests int64                 `json:"requests"`
	Errors   int64                 `json:"errors"`
	Latency  obs.HistogramSnapshot `json:"latency"`
}

// Report is the machine-readable result of one load run. Numbers meant to be
// compared across commits come from bench/ instead, which adds repetitions, a
// host block and a digest gate.
type Report struct {
	Schema             string  `json:"schema"`
	Name               string  `json:"name"`
	Seed               int64   `json:"seed"`
	Mode               string  `json:"mode"`
	Workers            int     `json:"workers,omitempty"`
	ArrivalRPS         float64 `json:"arrival_rps,omitempty"`
	Scenarios          int     `json:"scenarios"`
	ScenariosCompleted int     `json:"scenarios_completed"`
	ScenariosFailed    int     `json:"scenarios_failed"`
	AdsPerCampaign     int     `json:"ads_per_campaign"`
	AudienceSize       int     `json:"audience_size"`
	// DeliveryWorkers is the per-request delivery shard count sent with
	// every deliver call (0 = server default).
	DeliveryWorkers int `json:"delivery_workers,omitempty"`
	// Shards is the process topology behind the target when it is a router
	// (scraped from GET /v1/topology); 0 for a single-process target.
	Shards        int     `json:"shards,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Retries counts client-side retry attempts beyond each call's first
	// try; BreakerRejects counts calls refused outright by the client's
	// open circuit breaker.
	Retries        int64 `json:"retries,omitempty"`
	BreakerRejects int64 `json:"breaker_rejects,omitempty"`
	// RequestsShed and FaultsInjected are scraped from the target's
	// GET /metrics at the end of the run (zero when scraping failed or the
	// server runs without faults/shedding).
	RequestsShed   int64 `json:"requests_shed,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// Privacy records the insights privatization regime of the run: the
	// configured policy plus what the runner actually observed on the wire.
	// Omitted when privacy is off and no privatized response was seen.
	Privacy *PrivacyReport `json:"privacy,omitempty"`
	// Operations maps operation name → client-side latency/error stats.
	Operations map[string]OpReport `json:"operations"`
	// ServerMetrics optionally embeds the target's GET /metrics snapshot at
	// the end of the run, tying client-observed latencies to server-side
	// counters in one artifact.
	ServerMetrics *obs.Snapshot `json:"server_metrics,omitempty"`
}

// WriteJSON emits the indented report.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path.
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		return fmt.Errorf("loadgen: writing report: %w", errors.Join(err, f.Close()))
	}
	return f.Close()
}

// ReadReport parses a report produced by WriteJSON.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("loadgen: parsing report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("loadgen: unknown report schema %q", rep.Schema)
	}
	return &rep, nil
}
