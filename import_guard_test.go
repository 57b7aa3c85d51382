package sunmap_test

// Import guard: the paper's figures regenerate through the Session, the
// path every `POST /v1/do` client takes, so EXPERIMENTS.md pins that
// path and not a second translation onto the pipeline's internals.

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
	fset := token.NewFileSet()
	for _, dir := range sessionOnlyDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
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
				if pipelineInternals[path] {
					t.Errorf("%s imports %s; build sunmap requests and run them on the Session instead", file, path)
				}
			}
		}
	}
}
