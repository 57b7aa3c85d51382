package route

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// TestSinglePathHasOnePath checks Router.SinglePath on every library
// topology and on synthesized ones: an exhaustive search of the simple
// router paths inside each flagged pair's quadrant must find exactly one
// (as an arc sequence). So must every quadrant-restricted search, whatever
// the loads, which is what lets the mapper splice such a pair's route. The
// flag must also fire where the topology guarantees it: every butterfly
// and star pair, and some mesh pairs.
func TestSinglePathHasOnePath(t *testing.T) {
	var topos []topology.Topology
	for _, n := range []int{6, 12, 16} {
		lib, err := topology.Library(n, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, lib...)
	}
	g := apps.VOPD()
	for _, mk := range []func() (topology.Topology, error){
		func() (topology.Topology, error) { return synth.SparseHamming(g, 4) },
		func() (topology.Topology, error) { return synth.TrimmedMesh(g) },
		func() (topology.Topology, error) { return synth.Cluster(g, 4, 3) },
	} {
		topo, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	for _, topo := range topos {
		rt := NewRouter()
		rt.Bind(topo)
		numT := topo.NumTerminals()
		flagged := 0
		for s := 0; s < numT; s++ {
			for d := 0; d < numT; d++ {
				if s == d || !rt.SinglePath(s, d) {
					continue
				}
				flagged++
				src, dst := topo.InjectRouter(s), topo.EjectRouter(d)
				if n := countPaths(topo, rt.Quadrant(s, d), src, dst); n != 1 {
					t.Errorf("%s: pair %d->%d flagged single-path, but its quadrant holds %d paths", topo.Name(), s, d, n)
				}
			}
		}
		all := numT * (numT - 1)
		switch k := topo.Kind(); {
		case (k == topology.Butterfly || k == topology.Star) && flagged != all:
			t.Errorf("%s: %d of %d pairs flagged single-path, want all", topo.Name(), flagged, all)
		case k == topology.Mesh && flagged == 0:
			t.Errorf("%s: no pair flagged single-path", topo.Name())
		}
	}
}

// countPaths counts the simple src->dst router paths inside mask (nil =
// every router), as arc sequences, stopping once it has found two.
func countPaths(topo topology.Topology, mask []bool, src, dst int) int {
	if src == dst {
		return 1
	}
	g := topo.Graph()
	on := make([]bool, topo.NumRouters())
	var walk func(u int) int
	walk = func(u int) int {
		if u == dst {
			return 1
		}
		on[u] = true
		n := 0
		for _, a := range g.Out(u) {
			if n < 2 && !on[a.To] && (mask == nil || mask[a.To]) {
				n += walk(a.To)
			}
		}
		on[u] = false
		return n
	}
	return walk(src)
}
