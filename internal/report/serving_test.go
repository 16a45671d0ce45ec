package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
)

func TestServingSummaryGolden(t *testing.T) {
	rows := []ServingRow{
		{Op: "create_ad", Requests: 1200, Errors: 3, P50Ms: 1.5, P90Ms: 4.25, P99Ms: 9.125, MaxMs: 31.5},
		{Op: "deliver", Requests: 40, Errors: 0, P50Ms: 120, P90Ms: 180.5, P99Ms: 240.125, MaxMs: 260},
	}
	res := ServingResilience{Retries: 17, RequestsShed: 5, FaultsInjected: 41}
	got := ServingSummary("adload summary", rows, 12.5, 99.2, 3, res)
	want := "adload summary\n" +
		"Operation           Requests  Errors   p50 (ms)   p90 (ms)   p99 (ms)   max (ms)\n" +
		"create_ad               1200       3      1.500      4.250      9.125     31.500\n" +
		"deliver                   40       0    120.000    180.500    240.125    260.000\n" +
		"total              12.50s wall, 99.2 req/s, 3 errors\n" +
		"resilience         41 injected faults, 17 retries, 5 shed\n"
	if got != want {
		t.Errorf("ServingSummary golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestServingSummaryOmitsQuietResilienceLine(t *testing.T) {
	got := ServingSummary("quiet run", []ServingRow{{Op: "insights", Requests: 10}}, 1, 10, 0, ServingResilience{})
	if strings.Contains(got, "resilience") {
		t.Errorf("clean run should not print a resilience line:\n%s", got)
	}
	// Any single non-zero counter brings the line back.
	for _, res := range []ServingResilience{
		{Retries: 1}, {RequestsShed: 1}, {FaultsInjected: 1},
	} {
		out := ServingSummary("one fault", nil, 1, 0, 0, res)
		if !strings.Contains(out, "resilience") {
			t.Errorf("resilience %+v should print the line:\n%s", res, out)
		}
	}
}

func TestDeliveriesCSVGoldenRow(t *testing.T) {
	ds := []core.Delivery{{
		Key: "lumber-bm",
		Profile: demo.Profile{
			Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult,
		},
		Job:         "lumber",
		Impressions: 1234, Reach: 900, Clicks: 17,
		SpendCents: 420.5, FracBlack: 0.651, FracFemale: 0.25,
		FracAge35Plus: 0.5, FracAge45Plus: 0.25, FracAge65Plus: 0.1,
		AvgAge: 41.75, FracMen55Plus: 0.08, FracWomen55Plus: 0.04,
		OutOfState: 0.005,
	}}
	var buf bytes.Buffer
	if err := DeliveriesCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), buf.String())
	}
	wantRow := "lumber-bm," + ds[0].Profile.Race.String() + "," + ds[0].Profile.Gender.String() + "," +
		ds[0].Profile.Age.String() + ",lumber,1234,900,17," +
		"420.500000,0.651000,0.250000,0.500000,0.250000,0.100000,41.750000,0.080000,0.040000,0.005000"
	if lines[1] != wantRow {
		t.Errorf("CSV row mismatch:\ngot:  %s\nwant: %s", lines[1], wantRow)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestDeliveriesCSVWriterError(t *testing.T) {
	sentinel := errors.New("disk full")
	err := DeliveriesCSV(failingWriter{err: sentinel}, sampleDeliveries())
	if err == nil {
		t.Fatal("want an error from a failing writer")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v should wrap the writer's error", err)
	}
}
