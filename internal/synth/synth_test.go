package synth

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/sim"
	"sunmap/internal/topology"
)

// app fetches a built-in benchmark application or fails the test.
func app(t *testing.T, name string) *graph.CoreGraph {
	t.Helper()
	g, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCandidatesProperties is the synthesized-topology contract: every
// candidate of every generator, across all benchmark apps and several
// option sets, is fully connected, honors the switch-radix bound, and
// round-trips through the simulator's route builder with a usable path for
// every ordered terminal pair.
func TestCandidatesProperties(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		// radix is the effective inter-router degree bound candidates
		// must respect (the defaulted MaxRadix).
		radix int
	}{
		{name: "defaults", opts: Options{}, radix: 4},
		{name: "radix3", opts: Options{MaxRadix: 3}, radix: 3},
		{name: "radix6", opts: Options{MaxRadix: 6}, radix: 6},
		{name: "ring", opts: Options{MaxRadix: 2}, radix: 2},
		{name: "cluster3", opts: Options{ClusterSizes: []int{3}}, radix: 4},
	}
	for _, appName := range []string{"vopd", "mpeg4", "netproc", "dsp"} {
		for _, tc := range cases {
			t.Run(appName+"/"+tc.name, func(t *testing.T) {
				g := app(t, appName)
				cands, err := Candidates(g, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(cands) == 0 {
					t.Fatal("no candidates synthesized")
				}
				for _, topo := range cands {
					if topo.Kind() != topology.Synth {
						t.Errorf("%s: kind = %v, want synth", topo.Name(), topo.Kind())
					}
					if topo.NumTerminals() < g.NumCores() {
						t.Errorf("%s: %d terminals cannot host %d cores",
							topo.Name(), topo.NumTerminals(), g.NumCores())
					}
					if err := topology.Validate(topo); err != nil {
						t.Errorf("%s: %v", topo.Name(), err)
					}
					assertConnected(t, topo)
					assertRadixBound(t, topo, tc.radix)
					assertRoutesRoundTrip(t, topo)
				}
			})
		}
	}
}

// assertConnected checks every ordered router pair is reachable.
func assertConnected(t *testing.T, topo topology.Topology) {
	t.Helper()
	for u := 0; u < topo.NumRouters(); u++ {
		dist := topo.Graph().BFSDistances(u, false)
		for v, d := range dist {
			if d < 0 {
				t.Errorf("%s: router %d cannot reach router %d", topo.Name(), u, v)
				return
			}
		}
	}
}

// assertRadixBound checks no router exceeds the inter-router degree bound.
func assertRadixBound(t *testing.T, topo topology.Topology, radix int) {
	t.Helper()
	for r := 0; r < topo.NumRouters(); r++ {
		in, out := topo.RouterDegree(r)
		if in > radix || out > radix {
			t.Errorf("%s: router %d degree %d/%d exceeds radix bound %d",
				topo.Name(), r, in, out, radix)
		}
	}
}

// assertRoutesRoundTrip builds the simulator route table and checks every
// ordered terminal pair got at least one path.
func assertRoutesRoundTrip(t *testing.T, topo topology.Topology) {
	t.Helper()
	rt, err := sim.BuildRoutes(topo)
	if err != nil {
		t.Errorf("%s: BuildRoutes: %v", topo.Name(), err)
		return
	}
	for s := 0; s < topo.NumTerminals(); s++ {
		for d := 0; d < topo.NumTerminals(); d++ {
			if s == d {
				continue
			}
			// Same-router pairs legitimately traverse zero links; their
			// single path may be empty. Distinct routers need a real path.
			if topo.InjectRouter(s) == topo.EjectRouter(d) {
				continue
			}
			if len(rt.Paths(s, d)) == 0 {
				t.Errorf("%s: no route for terminal pair %d->%d", topo.Name(), s, d)
				return
			}
		}
	}
}

// TestCandidatesDeterministic asserts synthesis is a pure function of the
// application and options: two runs produce identical names, link lists
// and terminal attachments (the property that keeps Select results
// independent of parallelism and cache state).
func TestCandidatesDeterministic(t *testing.T) {
	g := app(t, "mpeg4")
	a, err := Candidates(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Candidates(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatalf("candidate %d name %q vs %q", i, a[i].Name(), b[i].Name())
		}
		la, lb := a[i].Links(), b[i].Links()
		if len(la) != len(lb) {
			t.Fatalf("%s: link counts differ: %d vs %d", a[i].Name(), len(la), len(lb))
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("%s: link %d differs: %v vs %v", a[i].Name(), j, la[j], lb[j])
			}
		}
		for term := 0; term < a[i].NumTerminals(); term++ {
			if a[i].InjectRouter(term) != b[i].InjectRouter(term) {
				t.Fatalf("%s: terminal %d attachment differs", a[i].Name(), term)
			}
		}
	}
}

// TestCandidatesValidate asserts every synthesized candidate passes the
// structural checks shared by all topologies, and that no candidate name
// resolves through the library grammar.
func TestCandidatesValidate(t *testing.T) {
	g := app(t, "vopd")
	cands, err := Candidates(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if err := topology.Validate(c); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
		if _, err := topology.ByName(c.Name()); err == nil {
			t.Errorf("ByName(%q) resolved a synthesized name", c.Name())
		}
	}
}

// TestOptionsValidation covers the explicit-invalid-value contract.
func TestOptionsValidation(t *testing.T) {
	g := app(t, "vopd")
	for _, opts := range []Options{
		{MaxRadix: 1},
		{MaxRadix: -2},
		{ClusterSizes: []int{0}},
		{ClusterSizes: []int{2, -1}},
	} {
		if _, err := Candidates(g, opts); err == nil {
			t.Errorf("Candidates(%+v) accepted invalid options", opts)
		}
	}
}

// TestSmallRadixSkipsMeshDerived: with a radix budget below the mesh's 4,
// the mesh-derived generators must be skipped, not violated.
func TestSmallRadixSkipsMeshDerived(t *testing.T) {
	g := app(t, "mpeg4")
	cands, err := Candidates(g, Options{MaxRadix: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("expected at least the cluster candidates")
	}
	for _, c := range cands {
		assertRadixBound(t, c, 2)
	}
}

// TestClusterKeepsHeavyPairsTogether: the defining property of min-cut
// clustering — the heaviest-communicating pair of the MPEG-4 hub design
// (sdram <-> upsamp at 910 MB/s) must land in one cluster, making their
// flow a zero-link, single-router route.
func TestClusterKeepsHeavyPairsTogether(t *testing.T) {
	g := app(t, "mpeg4")
	topo, err := Cluster(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sdram, _ := g.CoreIndex("sdram")
	upsamp, _ := g.CoreIndex("upsamp")
	// Terminal t hosts core t by construction in the cluster generator.
	if topo.InjectRouter(sdram) != topo.InjectRouter(upsamp) {
		t.Errorf("sdram (router %d) and upsamp (router %d) split across clusters despite 910 MB/s flow",
			topo.InjectRouter(sdram), topo.InjectRouter(upsamp))
	}
	if hops := topo.MinHops(sdram, upsamp); hops != 1 {
		t.Errorf("same-cluster MinHops = %d, want 1", hops)
	}
}
