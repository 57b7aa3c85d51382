package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func scopedCustom(t *testing.T, name string) Topology {
	t.Helper()
	topo, err := NewCustom(CustomSpec{
		Name:        name,
		NumRouters:  2,
		BiLinks:     [][2]int{{0, 1}},
		Terminals:   []int{0, 1},
		RouterPos:   [][2]float64{{0, 0}, {2, 0}},
		TerminalPos: [][2]float64{{0, 1}, {2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// unnamed hides a topology's name; NewCustom itself refuses empty names.
type unnamed struct{ Topology }

func (unnamed) Name() string { return "" }

func TestScopeRegisterLookup(t *testing.T) {
	sc := NewScope(0)
	topo := scopedCustom(t, "scoped-a")
	if err := sc.Register(topo); err != nil {
		t.Fatal(err)
	}
	got, err := sc.Resolve("scoped-a")
	if err != nil || got.Name() != "scoped-a" {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
	if _, err := sc.Resolve("scoped-missing"); err == nil {
		t.Error("Resolve found an unregistered name")
	}
	// Scoped entries stay invisible to the name grammar.
	if _, err := ByName("scoped-a"); err == nil {
		t.Error("scoped entry resolved through ByName")
	}
	if len(sc.m) != 1 {
		t.Errorf("len = %d, want 1", len(sc.m))
	}
}

// TestScopeRejectsUnsafeNames pins the naming rules: no empty names, no
// shadowing the library grammar.
func TestScopeRejectsUnsafeNames(t *testing.T) {
	sc := NewScope(0)
	if err := sc.Register(scopedCustom(t, "mesh-1x2")); err == nil {
		t.Error("Register accepted a library-grammar name")
	}
	if err := sc.Register(unnamed{scopedCustom(t, "scoped-u")}); err == nil {
		t.Error("Register accepted an empty name")
	}
	if len(sc.m) != 0 || len(sc.order) != 0 {
		t.Errorf("rejected registration still stored: %v", sc.order)
	}
}

// TestScopeEviction pins the bounded-memory contract: the least recently
// registered entry goes first, and re-registering a name makes it the
// newest without growing the scope.
func TestScopeEviction(t *testing.T) {
	sc := NewScope(3)
	register := func(name string) {
		t.Helper()
		if err := sc.Register(scopedCustom(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	wantOrder := func(want ...string) {
		t.Helper()
		if !slices.Equal(sc.order, want) || len(sc.m) != len(want) {
			t.Fatalf("order = %v (%d entries), want %v", sc.order, len(sc.m), want)
		}
		for _, name := range want {
			if _, err := sc.Resolve(name); err != nil {
				t.Fatalf("%s missing", name)
			}
		}
	}
	for i := 0; i < 4; i++ {
		register(fmt.Sprintf("scoped-%d", i))
	}
	wantOrder("scoped-1", "scoped-2", "scoped-3")
	if _, err := sc.Resolve("scoped-0"); err == nil {
		t.Error("oldest entry survived eviction")
	}
	// Re-registering refreshes the entry: it moves to the newest slot,
	// so the next new name evicts scoped-1, then scoped-3.
	register("scoped-2")
	wantOrder("scoped-1", "scoped-3", "scoped-2")
	register("scoped-4")
	wantOrder("scoped-3", "scoped-2", "scoped-4")
	register("scoped-5")
	wantOrder("scoped-2", "scoped-4", "scoped-5")
}

// TestScopeConcurrent hammers one scope from many goroutines — the race
// detector is the assertion.
func TestScopeConcurrent(t *testing.T) {
	sc := NewScope(8)
	topos := make([]Topology, 16)
	for i := range topos {
		topos[i] = scopedCustom(t, fmt.Sprintf("scoped-c%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				topo := topos[(g*13+i)%len(topos)]
				if err := sc.Register(topo); err != nil {
					t.Error(err)
					return
				}
				sc.Resolve(topo.Name())
			}
		}(g)
	}
	wg.Wait()
	if len(sc.m) > 8 || len(sc.order) != len(sc.m) {
		t.Errorf("%d entries, %d in order, limit 8", len(sc.m), len(sc.order))
	}
}

// TestCatalogLibraryShared checks two concurrent first requests for one
// (cores, opts) library build it once and get the same slice, and that
// the library's members are the objects their names resolve to.
func TestCatalogLibraryShared(t *testing.T) {
	sc := NewScope(0)
	opts := LibraryOptions{IncludeExtras: true}
	var libs [2][]Topology
	var wg sync.WaitGroup
	for i := range libs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lib, err := sc.Library(12, opts)
			if err != nil {
				t.Error(err)
			}
			libs[i] = lib
		}()
	}
	wg.Wait()
	if len(libs[0]) == 0 || &libs[0][0] != &libs[1][0] {
		t.Fatal("concurrent requests for one library got different slices")
	}
	want, err := Library(12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(libs[0]) {
		t.Fatalf("catalog library has %d topologies, Library %d", len(libs[0]), len(want))
	}
	for i, topo := range libs[0] {
		if topo.Name() != want[i].Name() || Digest(topo) != Digest(want[i]) {
			t.Errorf("member %d: %s differs from Library's %s", i, topo.Name(), want[i].Name())
		}
		got, err := sc.Resolve(topo.Name())
		if err != nil || got != topo {
			t.Errorf("Resolve(%s) = %p, %v; want the library member %p", topo.Name(), got, err, topo)
		}
	}
}

// TestCatalogSameNameSameObject checks a name resolves to one object,
// which a later library containing it reuses.
func TestCatalogSameNameSameObject(t *testing.T) {
	sc := NewScope(0)
	a, err := sc.Resolve("hypercube-4")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := sc.Resolve("hypercube-4"); b != a {
		t.Error("a second Resolve built a new object")
	}
	lib, err := sc.Library(16, LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(lib, func(t Topology) bool { return t.Name() == "hypercube-4" })
	if i < 0 || lib[i] != a {
		t.Error("the 16-core library does not hold the resolved hypercube-4")
	}
	if _, err := sc.Resolve("mesh-0x3"); err == nil {
		t.Error("Resolve accepted an invalid name")
	}
}

// TestCatalogEviction checks the library side's bounds: past the entry
// limit the oldest entry goes first, whatever the request timing, and a
// re-request rebuilds the library with identical digests; an entry past
// the pair bound on its own is handed out but neither held nor evicting.
func TestCatalogEviction(t *testing.T) {
	sc := NewScope(2)
	first, err := sc.Library(12, LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 32} {
		if _, err := sc.Library(n, LibraryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	heldCores := func() []int {
		var cores []int
		for _, h := range sc.held {
			cores = append(cores, h.key.cores)
		}
		return cores
	}
	if got := heldCores(); !slices.Equal(got, []int{16, 32}) || len(sc.libs) != 2 {
		t.Fatalf("held libraries %v (%d entries), want [16 32]", got, len(sc.libs))
	}
	again, err := sc.Library(12, LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := heldCores(); !slices.Equal(got, []int{32, 12}) {
		t.Fatalf("held libraries %v, want [32 12]", got)
	}
	if len(again) != len(first) || &again[0] == &first[0] {
		t.Fatal("re-requested library was not rebuilt")
	}
	// Members the held 32-core library shares keep their objects; the
	// rest are rebuilt. Either way the structure is the evicted one's.
	for i := range first {
		if Digest(again[i]) != Digest(first[i]) {
			t.Errorf("%s: rebuilt member differs in structure", first[i].Name())
		}
		if got, _ := sc.Resolve(first[i].Name()); got != again[i] {
			t.Errorf("%s: name resolves to another object than the library member", first[i].Name())
		}
	}
	refs := make(map[string]int)
	for _, h := range sc.held {
		for _, name := range h.names {
			refs[name]++
		}
	}
	for name, ref := range sc.named {
		if ref.refs != refs[name] {
			t.Errorf("%s held with %d refs, owned by %d entries", name, ref.refs, refs[name])
		}
	}
	if len(refs) != len(sc.named) {
		t.Errorf("%d names held, %d owned", len(sc.named), len(refs))
	}

	pairs := sc.pairs
	big, err := sc.Resolve("mesh-32x33")
	if err != nil {
		t.Fatal(err)
	}
	if big.NumTerminals()*big.NumTerminals() <= maxHeldPairs {
		t.Fatal("mesh-32x33 fits the pair bound; the test needs a larger network")
	}
	if got := heldCores(); !slices.Equal(got, []int{32, 12}) || sc.pairs != pairs || sc.named["mesh-32x33"] != nil {
		t.Errorf("an oversized network changed the held entries: %v, %d pairs", got, sc.pairs)
	}
}
