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
	got, ok := sc.Lookup("scoped-a")
	if !ok || got.Name() != "scoped-a" {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if _, ok := sc.Lookup("scoped-missing"); ok {
		t.Error("Lookup found an unregistered name")
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
			if _, ok := sc.Lookup(name); !ok {
				t.Fatalf("%s missing", name)
			}
		}
	}
	for i := 0; i < 4; i++ {
		register(fmt.Sprintf("scoped-%d", i))
	}
	wantOrder("scoped-1", "scoped-2", "scoped-3")
	if _, ok := sc.Lookup("scoped-0"); ok {
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
				sc.Lookup(topo.Name())
			}
		}(g)
	}
	wg.Wait()
	if len(sc.m) > 8 || len(sc.order) != len(sc.m) {
		t.Errorf("%d entries, %d in order, limit 8", len(sc.m), len(sc.order))
	}
}
