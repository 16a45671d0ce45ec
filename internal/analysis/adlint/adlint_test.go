package adlint_test

import (
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
		{"detrand", adlint.Detrand, []string{"detrand/internal/platform", "detrand/internal/privacy", "detrand/internal/chaos", "detrand/internal/coordinator", "detrand/clocked"}},
		{"lockhold", adlint.Lockhold, []string{"lockhold/a"}},
		{"ctxflow", adlint.Ctxflow, []string{"ctxflow/internal/marketing"}},
		{"walerr", adlint.Walerr, []string{"walerr/internal/store", "walerr/caller"}},
		{"obsreg", adlint.Obsreg, []string{"obsreg/a"}},
		{"goroleak", adlint.Goroleak, []string{"goroleak/internal/node"}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, tt.analyzer, tt.fixtures...)
		})
	}
}
