package sunmap_test

// Import guards: the paper's figures regenerate through the Session, the
// path every `POST /v1/do` client takes, so EXPERIMENTS.md pins that
// path and not a second translation onto the pipeline's internals; and
// the Session is the one place that measures survivability, so the
// selection and the search only ever see it as a scorer.

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sessionOnlyDirs hold code that reaches the pipeline only through the
// Session.
var sessionOnlyDirs = []string{"internal/exp", "cmd/sunexp"}

// pipelineInternals are the packages behind the Session's translation of
// a request.
var pipelineInternals = map[string]bool{
	"sunmap/internal/core":     true,
	"sunmap/internal/engine":   true,
	"sunmap/internal/mapping":  true,
	"sunmap/internal/route":    true,
	"sunmap/internal/sim":      true,
	"sunmap/internal/topology": true,
	"sunmap/internal/traffic":  true,
	"sunmap/internal/xpipes":   true,
}

// TestFiguresImportOnlyTheSession fails when a shipped (non-test) source
// of the figure reproductions imports a pipeline internal. Their tests
// may: the family-winner check compares against the selection layer.
func TestFiguresImportOnlyTheSession(t *testing.T) {
	for _, dir := range sessionOnlyDirs {
		shippedImports(t, dir, func(file, path string) {
			if pipelineInternals[path] {
				t.Errorf("%s imports %s; build sunmap requests and run them on the Session instead", file, path)
			}
		})
	}
}

// scorerOnly lists, per package, the imports its shipped files must not
// take: core and search get survivability from the Session's scorer
// (core.Config.Survive, search.Options.Survive), and the search ranks by
// internal/rank, not through the selection layer.
var scorerOnly = map[string][]string{
	"internal/core":   {"sunmap/internal/fault"},
	"internal/search": {"sunmap/internal/fault", "sunmap/internal/core"},
}

// TestSurvivabilityOnlyInTheSession fails when a shipped source of the
// selection or the search imports what scorerOnly forbids it.
func TestSurvivabilityOnlyInTheSession(t *testing.T) {
	for dir, banned := range scorerOnly {
		shippedImports(t, dir, func(file, path string) {
			for _, b := range banned {
				if path == b {
					t.Errorf("%s imports %s; survivability comes from the Session's scorer, its ranking from internal/rank", file, path)
				}
			}
		})
	}
}

// shippedImports calls fn with every import path of every non-test Go
// file in dir.
func shippedImports(t *testing.T, dir string, fn func(file, path string)) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			fn(file, path)
		}
	}
}
