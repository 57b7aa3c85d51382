// Package analysis is SUNMAP's in-tree static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// surface the repo's invariant checkers are written against, plus the
// package loader and driver that run them.
//
// The engine's performance story rests on invariants the compiler cannot
// see — byte-identical reports at every parallelism, allocation-free hot
// loops, context and error-wrapping discipline, bounded metric labels —
// which runtime tests and convention alone do not hold. The analyzers
// under this package (see the sibling directories ctxdiscipline,
// detorder, hotpath, obslabel and wrapsentinel, and the cmd/sunmap-lint
// multichecker) turn every one of those invariant classes into a
// build-breaking diagnostic. The limiter's one admission rule needs no
// analyzer: its slot methods are unexported, so the compiler keeps them
// inside internal/engine.
//
// The framework mirrors x/tools' API shape — Analyzer, Pass, Diagnostic
// — so the checkers port to the upstream framework verbatim if the
// x/tools dependency ever becomes available. Loading is done with
// `go list -e -deps -export -json`, parsing with go/parser, and type
// checking with go/types over the gc export data the go command already
// produced, so the driver needs nothing beyond the Go toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name for diagnostics, a
// doc string, and the Run function applied to every loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// sunmap-lint command line.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Match, when non-nil, restricts the analyzer to packages for which
	// it returns true (by import path). Analyzers with repo-specific
	// scopes (e.g. detorder's deterministic-fold packages) use it so the
	// multichecker can still be pointed at ./... wholesale. The
	// analysistest harness bypasses Match — fixtures always run.
	Match func(pkgPath string) bool
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and types through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	lines map[string]map[int][]string // filename -> line -> comment texts
}

// Diagnostic is one finding, positioned in the fileset of the pass that
// produced it.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Annotation markers all live in the //sunmap: comment namespace; see
// docs/ARCHITECTURE.md "Static invariants" for the contract.
const (
	// AnnotationHotPath marks a function whose body (and same-package
	// callees) the hotpath analyzer holds to the allocation-free
	// contract.
	AnnotationHotPath = "//sunmap:hotpath"
	// AnnotationAlloc marks one audited allocating line inside a hot
	// path — a growth or error path that the steady-state allocation
	// gates have proven cold.
	AnnotationAlloc = "//sunmap:alloc"
	// AnnotationWallClock marks a function allowed to read time.Now
	// inside the deterministic packages (the engine's timing site).
	AnnotationWallClock = "//sunmap:wallclock"
	// AnnotationUnordered marks a map-range loop whose fold is
	// order-insensitive by construction (e.g. a pure count), exempting
	// it from detorder.
	AnnotationUnordered = "//sunmap:unordered"
	// AnnotationDetached marks an audited context.Background() site that
	// deliberately outlives its caller's context (the server's graceful
	// drain), exempting it from ctxdiscipline.
	AnnotationDetached = "//sunmap:detached"
)

// FuncAnnotated reports whether the function declaration carries the
// given //sunmap: marker in its doc comment.
func FuncAnnotated(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// buildLineComments indexes every comment by (file, line) so analyzers
// can honor line-level suppression markers.
func (p *Pass) buildLineComments() {
	p.lines = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				m := p.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					p.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], c.Text)
			}
		}
	}
}

// LineAnnotated reports whether the source line holding pos (or the line
// just above it) carries the given //sunmap: marker as a comment — the
// line-level escape hatch for audited violations.
func (p *Pass) LineAnnotated(pos token.Pos, marker string) bool {
	if p.lines == nil {
		p.buildLineComments()
	}
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, text := range p.lines[position.Filename][line] {
			if strings.HasPrefix(strings.TrimSpace(text), marker) {
				return true
			}
		}
	}
	return false
}
