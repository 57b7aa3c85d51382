// Command sunmap-lint runs the repository's invariant analyzers — the
// build-breaking form of the contracts the engine's tests pin at
// runtime — over package patterns (the CI gate):
//
//	go run ./cmd/sunmap-lint ./...
//	go run ./cmd/sunmap-lint -list
//	go run ./cmd/sunmap-lint -only hotpath,detorder ./internal/...
//
// Exit status: 0 clean, 1 usage or driver error, 2 diagnostics reported
// (matching go vet's convention).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sunmap/internal/analysis"
	"sunmap/internal/analysis/suite"
)

// all is the registry: every invariant analyzer the repository ships.
var all = suite.All()

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sunmap-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: sunmap-lint [-list] [-only names] [package patterns]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the sunmap invariant analyzers over the packages (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range all {
			fmt.Printf("%-18s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(".", analyzers, patterns...)
	return report(diags, err)
}

// selectAnalyzers resolves an -only list against the registry.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("sunmap-lint: unknown analyzer %q (try -list)", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// report prints diagnostics go-vet style and maps them to the exit code.
func report(diags []analysis.Diag, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
