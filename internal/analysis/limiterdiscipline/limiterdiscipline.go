// Package limiterdiscipline enforces the session limiter's one
// admission rule: only internal/engine takes pool.Limiter slots. Its Fan
// reads off the context whether the caller already holds a slot — then
// nested workers borrow idle slots with engine.PollAcquire — or not —
// then every worker queues with the blocking Acquire. A slot taken
// anywhere else bypasses that rule: a blocking Acquire from code that
// already holds a slot can deadlock a fully subscribed limiter, and a
// hand-rolled fan-out that works without a slot hides its load from the
// admission controller.
package limiterdiscipline

import (
	"go/ast"
	"go/types"

	"sunmap/internal/analysis"
)

// governed lists the slot-taking functions the discipline confines to
// the allowlist.
var governed = map[string]bool{
	"(*sunmap/internal/pool.Limiter).Acquire":    true,
	"(*sunmap/internal/pool.Limiter).TryAcquire": true,
	"sunmap/internal/engine.PollAcquire":         true,
}

// Allowed is the admission-layer allowlist: the only packages in which
// a limiter slot may be taken. internal/engine is the admission layer —
// Evaluate and Fan.
var Allowed = map[string]bool{
	"sunmap/internal/engine": true,
}

// Analyzer flags limiter slot acquisitions outside the admission layer.
var Analyzer = &analysis.Analyzer{
	Name: "limiterdiscipline",
	Doc: "flag limiter slot acquisitions outside the admission layer\n\n" +
		"Only internal/engine may call pool.Limiter.Acquire, TryAcquire or\n" +
		"engine.PollAcquire; everything else fans its work through\n" +
		"engine.Fan, which applies the one admission rule.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if Allowed[pass.Pkg.Path()] {
		return nil
	}
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
			if !ok || !governed[obj.FullName()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"limiter slot taken by %s outside the admission layer (internal/engine): fan the work through engine.Fan",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
