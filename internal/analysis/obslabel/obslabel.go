// Package obslabel enforces the bounded-cardinality contract of the obs
// metrics registry: every metric name and every label value must be a
// compile-time constant. Prometheus label sets are a cross product —
// one interpolated label value (a topology name, a request id, an error
// string) turns a fixed family into an unbounded one, growing the
// registry without limit and making scrape output nondeterministic.
//
// The contract this enforces is the pre-resolution idiom: vec children
// are resolved once at package init with constant label arguments
// (`opTotal.With(OpSelect, "ok")`), and runtime code selects among the
// pre-built children with a map lookup or switch. Two call classes are
// checked, everywhere in the repository:
//
//  1. metric constructors on *obs.Registry (Counter, GaugeFunc,
//     CounterFunc, Histogram, CounterVec, HistogramVec) — the name
//     argument must be constant, and for the vec forms every label-name
//     argument too;
//  2. (*obs.CounterVec).With and (*obs.HistogramVec).With — every label
//     value must be constant.
package obslabel

import (
	"go/ast"
	"go/types"

	"sunmap/internal/analysis"
)

// obsPath is the package whose API the contract governs.
const obsPath = "sunmap/internal/obs"

// constructors maps each Registry constructor method to the index of its
// first label-name argument (-1 = no label arguments; only the metric
// name at index 0 is checked).
var constructors = map[string]int{
	"Counter":      -1,
	"GaugeFunc":    -1,
	"CounterFunc":  -1,
	"Histogram":    -1,
	"CounterVec":   2, // (name, help, labels...)
	"HistogramVec": 3, // (name, help, buckets, labels...)
}

// Analyzer flags non-constant metric names and label values at obs
// registry call sites.
var Analyzer = &analysis.Analyzer{
	Name: "obslabel",
	Doc: "flag non-constant metric names and label values at obs registry calls\n\n" +
		"Label sets are a cross product: one runtime-interpolated label value\n" +
		"makes a metric family unbounded. Names and labels must be compile-time\n" +
		"constants; resolve vec children once at init and select among them.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != obsPath {
				return true
			}
			recv := recvTypeName(obj)
			switch {
			case recv == "Registry":
				labelStart, ok := constructors[obj.Name()]
				if !ok {
					return true
				}
				checkArg(pass, call, 0, "metric name")
				if labelStart >= 0 {
					for i := labelStart; i < len(call.Args); i++ {
						checkArg(pass, call, i, "label name")
					}
				}
			case (recv == "CounterVec" || recv == "HistogramVec") && obj.Name() == "With":
				for i := range call.Args {
					checkArg(pass, call, i, "label value")
				}
			}
			return true
		})
	}
	return nil
}

// recvTypeName returns the receiver's base type name ("" for package-
// level functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// checkArg flags argument i of call if it is not a compile-time
// constant. A variadic slice expansion (`vec.With(vals...)`) has no
// per-argument constants and is flagged at the call.
func checkArg(pass *analysis.Pass, call *ast.CallExpr, i int, what string) {
	if i >= len(call.Args) {
		// Slice expansion: the ellipsis arg stands for all values.
		return
	}
	arg := call.Args[i]
	if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
		pass.Reportf(arg.Pos(),
			"%s passed by slice expansion is not a compile-time constant; resolve vec children at init with constant labels", what)
		return
	}
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return
	}
	pass.Reportf(arg.Pos(),
		"%s must be a compile-time constant (got a runtime value); resolve vec children at init and select among them", what)
}
