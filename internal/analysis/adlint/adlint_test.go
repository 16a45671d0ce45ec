package adlint_test

import (
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/analysis/adlint"
	"github.com/adaudit/impliedidentity/internal/analysis/analysistest"
)

// TestAnalyzers drives every analyzer over its fixture packages and checks
// the reported diagnostics against the // want expectations in the fixture
// sources. Each analyzer's fixture set includes at least one
// false-positive regression (a compliant shape that must stay silent).
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name     string
		analyzer *adlint.Analyzer
		fixtures []string
	}{
		{"detrand", adlint.Detrand, []string{"detrand/internal/platform", "detrand/internal/privacy", "detrand/internal/chaos", "detrand/internal/supervisor", "detrand/clocked", "detrand/optin"}},
		{"lockhold", adlint.Lockhold, []string{"lockhold/a"}},
		{"ctxflow", adlint.Ctxflow, []string{"ctxflow/internal/marketing"}},
		{"walerr", adlint.Walerr, []string{"walerr/internal/store", "walerr/caller"}},
		{"obsreg", adlint.Obsreg, []string{"obsreg/a"}},
		{"goroleak", adlint.Goroleak, []string{"goroleak/internal/supervisor"}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, tt.analyzer, tt.fixtures...)
		})
	}
}

// TestByName covers the -only flag's resolver.
func TestByName(t *testing.T) {
	all, err := adlint.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
	}
	two, err := adlint.ByName("detrand, goroleak")
	if err != nil || len(two) != 2 || two[0].Name != "detrand" || two[1].Name != "goroleak" {
		t.Fatalf("ByName(detrand, goroleak) = %v, err %v", two, err)
	}
	_, err = adlint.ByName("nosuch")
	if err == nil {
		t.Fatal("ByName(nosuch) succeeded; want error")
	}
	// A typo must fail loudly AND tell the user what would have worked.
	for _, name := range []string{"detrand", "lockhold", "goroleak", "walerr"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ByName(nosuch) error %q does not list valid analyzer %q", err, name)
		}
	}
}
