// Package suite is the registry of every invariant analyzer the
// repository ships. It is the single source of truth shared by the
// sunmap-lint command and the repository's self-lint test, so the CI
// gate and `go test` can never drift apart on which invariants are
// enforced.
package suite

import (
	"sunmap/internal/analysis"
	"sunmap/internal/analysis/ctxdiscipline"
	"sunmap/internal/analysis/detorder"
	"sunmap/internal/analysis/hotpath"
	"sunmap/internal/analysis/obslabel"
	"sunmap/internal/analysis/wrapsentinel"
)

// All returns the full analyzer suite in name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxdiscipline.Analyzer,
		detorder.Analyzer,
		hotpath.Analyzer,
		obslabel.Analyzer,
		wrapsentinel.Analyzer,
	}
}
