package probrange_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/probrange"
)

func TestProbRange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probrange.Analyzer, "lifefn")
}

// TestProbRangeImportedFacts checks arguments against probability
// parameters declared in another package, which the analyzer only
// learns through that package's dimension facts.
func TestProbRangeImportedFacts(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probrange.Analyzer, "problib", "core")
}
