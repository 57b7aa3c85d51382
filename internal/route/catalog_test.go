package route

import (
	"slices"
	"sync"
	"testing"

	"sunmap/internal/topology"
)

// foreign hides a topology's package: a Router bound to it builds
// private tables straight from Topology.Quadrant, the reference the
// shared tables are checked against.
type foreign struct{ topology.Topology }

// catalogCorpus is every topology of the 12-, 16- and 32-core libraries
// of one catalog, plus two custom networks, whose tables read their
// precomputed masks in place.
func catalogCorpus(t *testing.T) []topology.Topology {
	t.Helper()
	sc := topology.NewScope(0)
	var corpus []topology.Topology
	for _, cores := range []int{12, 16, 32} {
		lib, err := sc.Library(cores, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, lib...)
	}
	for _, spec := range []topology.CustomSpec{{
		Name:       "ring6",
		NumRouters: 6,
		BiLinks:    [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
		Terminals:  []int{0, 0, 1, 2, 3, 3, 4, 5},
	}, {
		Name:       "ladder",
		NumRouters: 6,
		BiLinks:    [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}},
		Terminals:  []int{0, 1, 2, 3, 4, 5},
	}} {
		spec.RouterPos = make([][2]float64, spec.NumRouters)
		spec.TerminalPos = make([][2]float64, len(spec.Terminals))
		topo, err := topology.NewCustom(spec)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, topo)
	}
	return corpus
}

// TestCatalogSharedTablesConcurrent fills each topology's shared routing
// tables from two routers at once — the way two engine workers' scratch
// sets share a catalog topology — and checks every quadrant mask,
// min-hop DAG and flag matches a fresh router's, bit for bit.
func TestCatalogSharedTablesConcurrent(t *testing.T) {
	for _, topo := range catalogCorpus(t) {
		n := topo.NumTerminals()
		var wg sync.WaitGroup
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := NewRouter()
				rt.Bind(topo)
				for k := range n * n {
					if w == 1 {
						k = n*n - 1 - k // the second router fills in reverse
					}
					s, d := k/n, k%n
					rt.SinglePath(s, d)
					rt.MinHopDAG(s, d)
				}
				rt.UniformHops()
			}()
		}
		wg.Wait()

		shared, want := NewRouter(), NewRouter()
		shared.Bind(topo)
		want.Bind(foreign{topo})
		if shared.tb != topology.SharedTables(topo) || !want.private {
			t.Fatalf("%s: routers hold the wrong tables", topo.Name())
		}
		if shared.UniformHops() != want.UniformHops() {
			t.Errorf("%s: UniformHops differs", topo.Name())
		}
		for s := range n {
			for d := range n {
				if !slices.Equal(shared.Quadrant(s, d), want.Quadrant(s, d)) ||
					!slices.Equal(shared.MinHopDAG(s, d), want.MinHopDAG(s, d)) ||
					shared.SinglePath(s, d) != want.SinglePath(s, d) {
					t.Fatalf("%s: pair %d->%d differs from a fresh router's", topo.Name(), s, d)
				}
			}
		}
	}
}

// TestCatalogBindByIdentity checks routers bound to one topology object
// share its tables, and a router rebinding between two objects of one
// name switches tables.
func TestCatalogBindByIdentity(t *testing.T) {
	a, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := NewRouter(), NewRouter()
	r1.Bind(a)
	r2.Bind(a)
	if r1.tb != r2.tb || r1.tb != topology.SharedTables(a) {
		t.Fatal("two routers bound to one topology hold different tables")
	}
	r1.Bind(b)
	if r1.tb != topology.SharedTables(b) || r1.tb == r2.tb {
		t.Error("rebinding to another object kept the first object's tables")
	}
}
