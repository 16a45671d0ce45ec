package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestEvaluationCachesLab(t *testing.T) {
	var out, errOut bytes.Buffer
	e := &Evaluation{Seed: 6, Scale: ScaleTest, Out: &out, Err: &errOut}
	if err := e.Close(); err != nil {
		t.Errorf("Close before any lab: %v", err)
	}
	if cs, sweep := e.Delivered(); len(cs) != 0 || sweep != nil {
		t.Errorf("nothing ran, Delivered = %v, %v", cs, sweep)
	}
	a, err := e.Lab()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if b, _ := e.Lab(); a != b {
		t.Error("Lab should build the world once")
	}
	if got := out.String(); got != "building simulated world (scale=test, seed=6)...\n\n" {
		t.Errorf("progress = %q", got)
	}
	if !strings.HasPrefix(errOut.String(), "marketing API listening at "+a.URL()) {
		t.Errorf("Err = %q, want the lab's URL", errOut.String())
	}
}

func TestScaleDown(t *testing.T) {
	if ScaleFull.reduced() != ScaleBench {
		t.Error("side labs of a full evaluation should run at bench")
	}
	if ScaleTest.reduced() != ScaleTest || ScaleBench.reduced() != ScaleBench {
		t.Error("test and bench should stay")
	}
	if scalePresets[ScaleFull].discoverySamples != 50000 {
		t.Error("a full evaluation samples the paper's 50,000 faces")
	}
}

// A step that stands on another runs it first and shares what it built:
// Campaign 4 alone delivers Campaign 3, and both read one pipeline.
func TestEvaluationStepsCallThrough(t *testing.T) {
	var out bytes.Buffer
	e := &Evaluation{Seed: 7, Scale: ScaleTest, Out: &out}
	defer e.Close()
	emp, err := e.Employment()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := e.Employment(); again != emp {
		t.Error("Employment should run once")
	}
	c3 := strings.Index(out.String(), "running Campaign 3")
	c4 := strings.Index(out.String(), "running Campaign 4")
	if c3 < 0 || c4 < c3 {
		t.Errorf("Campaign 3 should be announced before Campaign 4:\n%s", out.String())
	}
	cs, _ := e.Delivered()
	if len(cs) != 2 || cs[0].Name != "campaign3_synthetic" || cs[1].Name != "campaign4_employment" {
		t.Errorf("Delivered = %+v, want Campaigns 3 and 4", cs)
	}
}
