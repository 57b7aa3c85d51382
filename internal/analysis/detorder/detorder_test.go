package detorder_test

import (
	"testing"

	"sunmap/internal/analysis/analysistest"
	"sunmap/internal/analysis/detorder"
)

func TestBad(t *testing.T) {
	analysistest.Run(t, "testdata/bad", detorder.Analyzer)
}

func TestClean(t *testing.T) {
	analysistest.Run(t, "testdata/clean", detorder.Analyzer)
}

// TestMatchScope pins the analyzer to the deterministic fold packages.
func TestMatchScope(t *testing.T) {
	for pkg, want := range map[string]bool{
		"sunmap/internal/core":   true,
		"sunmap/internal/engine": true,
		"sunmap/internal/fault":  true,
		"sunmap/internal/obs":    true,
		"sunmap/internal/search": true,
		"sunmap/serve":           true,
		"sunmap/internal/sim":    false, // seeded RNG is the sim's workload, not a leak
		"sunmap":                 true,
	} {
		if got := detorder.Analyzer.Match(pkg); got != want {
			t.Errorf("Match(%q) = %v, want %v", pkg, got, want)
		}
	}
}
