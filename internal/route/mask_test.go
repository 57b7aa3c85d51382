package route

// Masked-rerouting tests: the failed-link behavior the fault subsystem's
// survivability sweep depends on. They pin that congestion-aware routing
// reroutes around DownLinks (leaving masked links untouched), that split
// routing keeps every chunk off masked links, that the oblivious DO
// discipline (grid walk and minimum-hop fallback alike) and a cut SM DAG
// fail loudly, and that a malformed mask is rejected.

import (
	"slices"
	"strings"
	"testing"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// maskFor returns an all-false mask sized for topo with the given link
// IDs marked down.
func maskFor(topo topology.Topology, down ...int) []bool {
	m := make([]bool, len(topo.Links()))
	for _, id := range down {
		m[id] = true
	}
	return m
}

// linkID finds the directed link u->v.
func linkID(t *testing.T, topo topology.Topology, u, v int) int {
	t.Helper()
	for _, l := range topo.Links() {
		if l.From == u && l.To == v {
			return l.ID
		}
	}
	t.Fatalf("no link %d->%d in %s", u, v, topo.Name())
	return -1
}

// assertAvoids fails when any routed path crosses a masked link.
func assertAvoids(t *testing.T, res *Result, mask []bool) {
	t.Helper()
	for _, p := range res.Paths {
		for _, id := range p.LinkIDs {
			if mask[id] {
				t.Errorf("commodity %d routed over down link %d", p.Commodity.ID, id)
			}
		}
	}
	for id, down := range mask {
		if down && res.LinkLoads[id] != 0 {
			t.Errorf("down link %d carries %g MB/s", id, res.LinkLoads[id])
		}
	}
}

// TestMinPathReroutesAroundDownLink fails the direct channel between two
// adjacent mesh routers and checks MP finds the detour (and that the
// detour really is longer).
func TestMinPathReroutesAroundDownLink(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	comms := []graph.Commodity{comm(0, 0, 1, 100)}
	assign := identityAssign(4)

	base, err := Route(topo, assign, comms, Options{Function: MinPath})
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Paths[0].Hops(); got != 2 {
		t.Fatalf("fault-free path has %d hops, want 2", got)
	}

	mask := maskFor(topo, linkID(t, topo, 0, 1))
	res, err := Route(topo, assign, comms, Options{Function: MinPath, DownLinks: mask})
	if err != nil {
		t.Fatalf("masked MP routing failed: %v", err)
	}
	assertAvoids(t, res, mask)
	checkConservation(t, topo, comms, res)
	if got := res.Paths[0].Hops(); got != 4 {
		t.Errorf("detour has %d hops, want 4 (0->2->3->1)", got)
	}
}

// TestMinPathMaskedDisconnected cuts every link out of the source router
// and checks the failure is reported as a routing error, not a panic or
// a silent partial result.
func TestMinPathMaskedDisconnected(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	var down []int
	for _, l := range topo.Links() {
		if l.From == 0 || l.To == 0 {
			down = append(down, l.ID)
		}
	}
	_, err := Route(topo, identityAssign(4), []graph.Commodity{comm(0, 0, 3, 50)},
		Options{Function: MinPath, DownLinks: maskFor(topo, down...)})
	if err == nil {
		t.Fatal("routing out of an isolated router succeeded")
	}
}

// TestSplitRoutingRespectsMask pins the split-routing path of the sweep:
// SA must water-fill every chunk onto surviving links only, with loads
// conserved, even when the heaviest fault-free path is down.
func TestSplitRoutingRespectsMask(t *testing.T) {
	topo := mustTopo(topology.NewMesh(3, 3))
	comms := []graph.Commodity{comm(0, 0, 8, 320), comm(1, 2, 6, 160)}
	assign := identityAssign(9)

	base, err := Route(topo, assign, comms, Options{Function: SplitAll, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the busiest link of the fault-free split routing.
	worst := 0
	for id, l := range base.LinkLoads {
		if l > base.LinkLoads[worst] {
			worst = id
		}
	}
	mask := maskFor(topo, worst)
	res, err := Route(topo, assign, comms, Options{Function: SplitAll, Chunks: 8, DownLinks: mask})
	if err != nil {
		t.Fatalf("masked SA routing failed: %v", err)
	}
	assertAvoids(t, res, mask)
	checkConservation(t, topo, comms, res)
}

// TestSplitMinFailsWhenDAGCut verifies SM's documented fragility: when
// the fault severs the minimum-hop DAG the commodity is confined to, SM
// reports an error instead of silently leaving the DAG.
func TestSplitMinFailsWhenDAGCut(t *testing.T) {
	// On a 1x3 mesh path graph the min-hop DAG from terminal 0 to 2 is
	// the unique chain 0->1->2; failing 0->1 cuts it.
	topo := mustTopo(topology.NewMesh(1, 3))
	mask := maskFor(topo, linkID(t, topo, 0, 1))
	_, err := Route(topo, identityAssign(3), []graph.Commodity{comm(0, 0, 2, 100)},
		Options{Function: SplitMin, DownLinks: mask})
	if err == nil {
		t.Fatal("SM routed across a cut minimum-hop DAG")
	}
}

// TestDOFailsOnDownLink verifies the oblivious discipline cannot adapt:
// a DO path crossing a down link is an error naming the link.
func TestDOFailsOnDownLink(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	// DO (XY, columns first) routes 0->3 via 0->1->3.
	id := linkID(t, topo, 0, 1)
	_, err := Route(topo, identityAssign(4), []graph.Commodity{comm(0, 0, 3, 100)},
		Options{Function: DimensionOrdered, DownLinks: maskFor(topo, id)})
	if err == nil {
		t.Fatal("DO routed over a down link")
	}
	if !strings.Contains(err.Error(), "down link") {
		t.Errorf("error %q does not name the down link", err)
	}
	// A fault off the DO path leaves DO untouched.
	other := linkID(t, topo, 2, 0)
	res, err := Route(topo, identityAssign(4), []graph.Commodity{comm(0, 0, 3, 100)},
		Options{Function: DimensionOrdered, DownLinks: maskFor(topo, other)})
	if err != nil {
		t.Fatalf("DO failed on an untouched path: %v", err)
	}
	if got := res.Paths[0].Hops(); got != 3 {
		t.Errorf("DO path has %d hops, want 3", got)
	}

	// The oblivious minimum-hop fallback (octagon) fails the same way. DO
	// 0->3 takes one of the two 2-hop routes (via 4 or via 7); with a
	// link of that route down, DO must not move to the other one.
	oct := mustTopo(topology.NewOctagon())
	octComms := []graph.Commodity{comm(0, 0, 3, 100)}
	base, err := Route(oct, identityAssign(8), octComms, Options{Function: DimensionOrdered})
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Paths[0].Hops(); got != 3 {
		t.Fatalf("octagon DO path %v has %d routers, want 3", base.Paths[0].Routers, got)
	}
	_, err = Route(oct, identityAssign(8), octComms,
		Options{Function: DimensionOrdered, DownLinks: maskFor(oct, base.Paths[0].LinkIDs[1])})
	if err == nil {
		t.Fatal("octagon DO rerouted around a down link")
	}
	if !strings.Contains(err.Error(), "down link") {
		t.Errorf("octagon error %q does not name the down link", err)
	}
}

// TestDOFallbackIgnoresLoads pins that the oblivious minimum-hop fallback
// (octagon) is load-independent: a commodity's DO path is the same when
// routed alone and when routed after a heavy commodity that loads its
// first hop. The mapper's delta evaluator relies on this to splice DO
// commodities without re-routing them.
func TestDOFallbackIgnoresLoads(t *testing.T) {
	oct := mustTopo(topology.NewOctagon())
	assign := identityAssign(8)
	light := comm(1, 0, 3, 10)
	alone, err := Route(oct, assign, []graph.Commodity{light}, Options{Function: DimensionOrdered})
	if err != nil {
		t.Fatal(err)
	}
	first := oct.Links()[alone.Paths[0].LinkIDs[0]]
	heavy := comm(0, first.From, first.To, 1000)
	both, err := Route(oct, assign, []graph.Commodity{heavy, light}, Options{Function: DimensionOrdered})
	if err != nil {
		t.Fatal(err)
	}
	if got := both.Paths[0].LinkIDs; !slices.Equal(got, []int{first.ID}) {
		t.Fatalf("heavy commodity took links %v, want the light one's first hop %d", got, first.ID)
	}
	if got, want := both.Paths[1].Routers, alone.Paths[0].Routers; !slices.Equal(got, want) {
		t.Errorf("DO path %v after a heavy commodity, %v alone", got, want)
	}
}

// TestDownLinksLengthValidated rejects a mask that does not cover the
// topology's links.
func TestDownLinksLengthValidated(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	_, err := Route(topo, identityAssign(4), []graph.Commodity{comm(0, 0, 3, 10)},
		Options{Function: MinPath, DownLinks: make([]bool, 3)})
	if err == nil {
		t.Fatal("short DownLinks mask accepted")
	}
}

// TestMaskedRouterReuse checks a Router's mask never leaks across calls:
// a masked RouteInto followed by an unmasked one must reproduce the
// fault-free result exactly.
func TestMaskedRouterReuse(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	comms := []graph.Commodity{comm(0, 0, 1, 100)}
	assign := identityAssign(4)
	rt := NewRouter()
	var masked, clean, ref Result
	if err := rt.RouteInto(&ref, topo, assign, comms, Options{Function: MinPath}); err != nil {
		t.Fatal(err)
	}
	mask := maskFor(topo, linkID(t, topo, 0, 1))
	if err := rt.RouteInto(&masked, topo, assign, comms, Options{Function: MinPath, DownLinks: mask}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteInto(&clean, topo, assign, comms, Options{Function: MinPath}); err != nil {
		t.Fatal(err)
	}
	if clean.MaxLinkLoad != ref.MaxLinkLoad || clean.HopSumMBps != ref.HopSumMBps {
		t.Errorf("post-mask routing diverged: max load %g vs %g, hop sum %g vs %g",
			clean.MaxLinkLoad, ref.MaxLinkLoad, clean.HopSumMBps, ref.HopSumMBps)
	}
	if masked.HopSumMBps == ref.HopSumMBps {
		t.Error("masked routing did not detour (hop sums equal)")
	}
}
