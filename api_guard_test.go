package sunmap_test

// API-surface enforcement: the Session and its Request/Report schema are
// the package's only public surface, and the examples are its public
// face. Three guards back that: the exported surface of the shipped root
// sources is pinned name by name, the shipped sources must not declare
// the removed pre-Session identifiers, and no example may reference them.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deprecatedFuncs lists the removed pre-Session identifiers: the
// top-level wrappers, the engine-level types, constants and helpers only
// those wrappers consumed, and the removed session options.
var deprecatedFuncs = map[string]bool{
	"App":                  true,
	"Select":               true,
	"SelectContext":        true,
	"Map":                  true,
	"MapContext":           true,
	"RoutingSweep":         true,
	"RoutingSweepContext":  true,
	"ParetoExplore":        true,
	"ParetoExploreContext": true,
	"Simulate":             true,
	"SimulateContext":      true,
	"Generate":             true,

	"SelectConfig":       true,
	"Selection":          true,
	"SummaryRow":         true,
	"RoutingSweepRow":    true,
	"ParetoPoint":        true,
	"MapOptions":         true,
	"MapResult":          true,
	"Weights":            true,
	"EvalCache":          true,
	"ExploreOptions":     true,
	"SimConfig":          true,
	"SimStats":           true,
	"RouteTable":         true,
	"TrafficPattern":     true,
	"SystemC":            true,
	"Tech":               true,
	"DimensionOrdered":   true,
	"MinPath":            true,
	"SplitMin":           true,
	"SplitAll":           true,
	"MinDelay":           true,
	"MinArea":            true,
	"MinPower":           true,
	"Weighted":           true,
	"NewEvalCache":       true,
	"BuildRoutes":        true,
	"AdversarialPattern": true,
	"UniformPattern":     true,
	"Tech100nm":          true,
	"WithTech":           true,
	"WithCache":          true,
}

// publicSurface is the package's whole exported API, sorted: top-level
// identifiers, and "Type.Method" for the methods of exported types.
// Growing it is a deliberate API decision, made here in review.
var publicSurface = []string{
	"AppByName",
	"AppNames",
	"AppSpec",
	"AssignRow",
	"BlockRow",
	"Commodity",
	"Core",
	"CoreGraph",
	"CoreSpec",
	"DesignReport",
	"ErrBadRequest",
	"ErrInfeasible",
	"ErrInternal",
	"ErrUnknownApp",
	"ErrUnknownTopology",
	"ErrorKindBadRequest",
	"ErrorKindCanceled",
	"ErrorKindInfeasible",
	"ErrorKindInternal",
	"EvalCacheStats",
	"FaultReport",
	"FaultSimReport",
	"FaultSpec",
	"FaultSweepRequest",
	"FloorplanReport",
	"FlowSpec",
	"GenerateReport",
	"GenerateReport.WriteTo",
	"GenerateRequest",
	"GeneratedFile",
	"Library",
	"LibraryOptions",
	"LoadApp",
	"LoadAppFile",
	"LoadStats",
	"MapRequest",
	"MapSpec",
	"NewSession",
	"NewTrace",
	"OpFaultSweep",
	"OpGenerate",
	"OpMap",
	"OpPareto",
	"OpRoutingSweep",
	"OpSearch",
	"OpSelect",
	"OpSimulate",
	"ParetoPointRow",
	"ParetoReport",
	"ParetoRequest",
	"ParseReport",
	"ParseRequest",
	"PhysicalLinks",
	"Progress",
	"ProgressEvent",
	"Report",
	"Report.Err",
	"Request",
	"Request.Validate",
	"SearchCheckpoint",
	"SearchCheckpoints",
	"SearchOptions",
	"SearchReport",
	"SearchRequest",
	"SelectReport",
	"SelectRequest",
	"Session",
	"Session.Batch",
	"Session.CacheStats",
	"Session.Do",
	"Session.DoCheckpointed",
	"Session.FaultSweep",
	"Session.Generate",
	"Session.Load",
	"Session.Map",
	"Session.ParetoExplore",
	"Session.RoutingSweep",
	"Session.Search",
	"Session.SearchCheckpointed",
	"Session.Select",
	"Session.Simulate",
	"Session.SynthCandidates",
	"SessionOption",
	"SimReport",
	"SimRequest",
	"SimRow",
	"SweepReport",
	"SweepRequest",
	"SweepRow",
	"SynthOptions",
	"SynthSpec",
	"Topology",
	"TopologyByName",
	"TopologyRow",
	"Trace",
	"Trace.Context",
	"Trace.Snapshot",
	"Trace.WriteText",
	"TraceSnapshot",
	"WithFault",
	"WithLibrary",
	"WithParallelism",
	"WithProgress",
	"WithSynth",
	"WithTrace",
}

// shippedDecls parses the root package's non-test sources.
func shippedDecls(t *testing.T) map[string][]ast.Decl {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	decls := make(map[string][]ast.Decl)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		decls[file] = af.Decls
	}
	return decls
}

// exportedNames lists a declaration's exported names, methods as
// "Type.Method" (only for exported receiver types).
func exportedNames(d ast.Decl) []string {
	var names []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			if d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() && d.Name.IsExported() {
			names = append(names, id.Name+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				if spec.Name.IsExported() {
					names = append(names, spec.Name.Name)
				}
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					if id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}

// TestPublicSurface pins the exported API of package sunmap: any
// identifier added to or removed from the shipped sources fails here by
// name until publicSurface is updated with it.
func TestPublicSurface(t *testing.T) {
	have := make(map[string]bool)
	for _, decls := range shippedDecls(t) {
		for _, d := range decls {
			for _, name := range exportedNames(d) {
				have[name] = true
			}
		}
	}
	want := make(map[string]bool, len(publicSurface))
	for _, name := range publicSurface {
		want[name] = true
		if !have[name] {
			t.Errorf("public surface lost %s", name)
		}
	}
	var added []string
	for name := range have {
		if !want[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		t.Errorf("public surface gained %s — add it to publicSurface if intended", name)
	}
	if !sort.StringsAreSorted(publicSurface) {
		t.Error("publicSurface is not sorted")
	}
}

// TestDeprecatedWrappersRemoved asserts the shipped root package
// declares none of the removed pre-Session identifiers: they may exist
// only in _test.go files.
func TestDeprecatedWrappersRemoved(t *testing.T) {
	for file, decls := range shippedDecls(t) {
		for _, d := range decls {
			for _, name := range exportedNames(d) {
				if deprecatedFuncs[name] {
					t.Errorf("%s: shipped package declares removed identifier %s — the Session is the only entry point",
						file, name)
				}
			}
		}
	}
}

func TestExamplesAvoidDeprecatedAPI(t *testing.T) {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found")
	}
	fset := token.NewFileSet()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		af, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		ast.Inspect(af, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "sunmap" {
				return true
			}
			if deprecatedFuncs[sel.Sel.Name] {
				t.Errorf("%s: uses deprecated sunmap.%s — migrate to the Session API",
					file, sel.Sel.Name)
			}
			return true
		})
	}
}
