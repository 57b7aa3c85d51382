// Package detorder guards the determinism contract of the fold/report
// packages: reports must be byte-identical at every parallelism setting
// and across runs, which dies the moment map iteration order, the
// global math/rand source, or the wall clock leaks into an output.
//
// Three construct classes are flagged, in the deterministic packages
// only (core, engine, exp, fault, jobs, obs, search, serve — see
// DetPackages):
//
//  1. a `range` over a map whose body appends to a slice or sends on a
//     channel — iteration order reaches an ordered sink. Sorting the
//     produced slice after the loop (any sort.*/slices.Sort* call later
//     in the same function) restores determinism and silences the
//     diagnostic, as does the //sunmap:unordered line annotation for
//     folds that are provably order-insensitive (pure counts, max of
//     ints — not float sums, which are order-sensitive);
//  2. the bare top-level math/rand functions (Intn, Float64, Shuffle,
//     ...), which draw from the process-global source; deterministic
//     code seeds an explicit *rand.Rand;
//  3. time.Now outside a function annotated //sunmap:wallclock. The
//     audited readers live in internal/obs (obs.Now/obs.Since); every
//     other deterministic-package clock read should go through them so
//     span timing stays attributable to one reviewed site.
package detorder

import (
	"go/ast"
	"go/types"
	"strings"

	"sunmap/internal/analysis"
)

// DetPackages lists the packages holding deterministic folds: every
// package whose output is pinned byte-identical across parallelism by a
// root equivalence test.
var DetPackages = map[string]bool{
	"sunmap/internal/core":   true,
	"sunmap/internal/engine": true,
	"sunmap/internal/exp":    true,
	"sunmap/internal/fault":  true,
	"sunmap/internal/jobs":   true,
	"sunmap/internal/obs":    true,
	"sunmap/internal/search": true,
	"sunmap/serve":           true,
	"sunmap/serve/client":    true,
}

// randConstructors are the math/rand package-level functions that build
// explicitly seeded generators rather than drawing from the global
// source — always legal.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer flags nondeterminism leaking into the deterministic fold
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "flag map-order, global-rand and wall-clock nondeterminism in the fold packages\n\n" +
		"Reports are byte-identical at every parallelism; map ranges feeding\n" +
		"appends/sends, bare math/rand and un-annotated time.Now break that.",
	Match: func(pkgPath string) bool { return DetPackages[pkgPath] },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc applies all three construct checks inside one function.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	wallclock := analysis.FuncAnnotated(fn, analysis.AnnotationWallClock)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		case *ast.CallExpr:
			checkCall(pass, n, wallclock)
		}
		return true
	})
}

// checkMapRange flags a map-order-dependent fold: a range over a map
// whose body reaches an append or channel send, with no sort downstream
// in the same function.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.LineAnnotated(rng.Pos(), analysis.AnnotationUnordered) {
		return
	}
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					sink = "an append"
				}
			}
		}
		return true
	})
	if sink == "" {
		return
	}
	// An intervening sort downstream of the loop restores a canonical
	// order before anything observable is produced.
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
				switch pkg := obj.Pkg().Path(); {
				case pkg == "sort":
					sorted = true
				case pkg == "slices" && strings.HasPrefix(obj.Name(), "Sort"):
					sorted = true
				}
			}
		}
		return true
	})
	if sorted {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order reaches %s; iterate sorted keys or sort the result (or annotate %s if the fold is order-insensitive)",
		sink, analysis.AnnotationUnordered)
}

// checkCall flags bare global-source math/rand calls and un-annotated
// time.Now reads.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, wallclock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on an explicit *rand.Rand
	// are the sanctioned deterministic form.
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch pkg := obj.Pkg().Path(); pkg {
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			pass.Reportf(call.Pos(),
				"bare %s.%s draws from the process-global source; seed an explicit *rand.Rand",
				pkg, obj.Name())
		}
	case "time":
		if obj.Name() == "Now" && !wallclock {
			pass.Reportf(call.Pos(),
				"time.Now in a deterministic package outside a %s site; read the clock through obs.Now", analysis.AnnotationWallClock)
		}
	}
}
