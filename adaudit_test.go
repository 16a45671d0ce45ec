package adaudit

// End-to-end tests through the public facade only — the API surface a
// downstream user of the library sees.

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1000, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	pipe, err := NewSyntheticPipeline(2000, 1001)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 1002})
	if err != nil {
		t.Fatal(err)
	}

	// Formatting surfaces.
	if out := FormatTable3(res.Table3); !strings.Contains(out, "race:black") {
		t.Errorf("FormatTable3:\n%s", out)
	}
	if out := FormatTable4(res.Table4, "a"); !strings.Contains(out, "Intercept") {
		t.Errorf("FormatTable4:\n%s", out)
	}
	if out := FormatFigure3(res.Deliveries, "Figure 3"); !strings.Contains(out, "child") {
		t.Errorf("FormatFigure3:\n%s", out)
	}
	if out := FormatFigure4(Figure4(res.Deliveries)); !strings.Contains(out, "teen") {
		t.Errorf("FormatFigure4:\n%s", out)
	}
	row := SummarizeCampaign(res.Run, "Stock", "§5.2")
	if out := FormatTable2([]Table2Row{row}); !strings.Contains(out, "Stock") {
		t.Errorf("FormatTable2:\n%s", out)
	}
	var buf bytes.Buffer
	if err := WriteDeliveriesCSV(&buf, res.Deliveries); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "frac_black") {
		t.Error("CSV missing header")
	}

	// Figure 1 through the facade.
	fig1, err := lab.RunFigure1(pipe, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFigure1(fig1); !strings.Contains(out, "white delivery") {
		t.Errorf("FormatFigure1:\n%s", out)
	}
}

func TestScaleConstantsDistinct(t *testing.T) {
	if ScaleTest == ScaleBench || ScaleBench == ScaleFull {
		t.Error("scale constants must be distinct")
	}
}
