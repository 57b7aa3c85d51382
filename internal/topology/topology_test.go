package topology

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// mustMesh and friends build topologies or fail the test.
func mustMesh(t *testing.T, r, c int) Topology {
	t.Helper()
	m, err := NewMesh(r, c)
	if err != nil {
		t.Fatalf("NewMesh(%d,%d): %v", r, c, err)
	}
	return m
}

func mustTorus(t *testing.T, r, c int) Topology {
	t.Helper()
	m, err := NewTorus(r, c)
	if err != nil {
		t.Fatalf("NewTorus(%d,%d): %v", r, c, err)
	}
	return m
}

func mustHypercube(t *testing.T, d int) Topology {
	t.Helper()
	m, err := NewHypercube(d)
	if err != nil {
		t.Fatalf("NewHypercube(%d): %v", d, err)
	}
	return m
}

func mustButterfly(t *testing.T, k, n int) Topology {
	t.Helper()
	m, err := NewButterfly(k, n)
	if err != nil {
		t.Fatalf("NewButterfly(%d,%d): %v", k, n, err)
	}
	return m
}

func mustClos(t *testing.T, m, n, r int) Topology {
	t.Helper()
	c, err := NewClos(m, n, r)
	if err != nil {
		t.Fatalf("NewClos(%d,%d,%d): %v", m, n, r, err)
	}
	return c
}

func TestConstructorRejectsBadParams(t *testing.T) {
	if _, err := NewMesh(0, 5); err == nil {
		t.Error("mesh 0x5 accepted")
	}
	if _, err := NewMesh(1, 1); err == nil {
		t.Error("mesh 1x1 accepted")
	}
	if _, err := NewTorus(2, 4); err == nil {
		t.Error("torus with dim 2 accepted")
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("hypercube dim 0 accepted")
	}
	if _, err := NewButterfly(1, 3); err == nil {
		t.Error("1-ary butterfly accepted")
	}
	if _, err := NewButterfly(2, 1); err == nil {
		t.Error("1-stage butterfly accepted")
	}
	if _, err := NewClos(0, 2, 2); err == nil {
		t.Error("clos with 0 middles accepted")
	}
	if _, err := NewStar(1); err == nil {
		t.Error("star-1 accepted")
	}
}

// TestSizeBound pins the one size cap every library family shares: at
// most maxTerminals terminals (and, for Clos, channels per stage),
// checked before anything is allocated and without overflowing on huge
// names.
func TestSizeBound(t *testing.T) {
	for _, name := range []string{"mesh-64x64", "torus-64x64", "hypercube-12", "butterfly-4ary6fly",
		"butterfly-2ary12fly", "clos-m2n2r2048", "star-4096"} {
		topo, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q) at the bound: %v", name, err)
			continue
		}
		if topo.NumTerminals() > maxTerminals {
			t.Errorf("%s has %d terminals", name, topo.NumTerminals())
		}
	}
	for _, name := range []string{
		"mesh-1000x1000", "mesh-64x65", "mesh-4294967296x4294967296", "mesh-9223372036854775807x2",
		"torus-65x64", "hypercube-13", "hypercube-16", "hypercube-64", "hypercube-9223372036854775807",
		"butterfly-2ary13fly", "butterfly-1000000ary2fly", "butterfly-2ary9223372036854775807fly",
		"clos-m2n1000r1000", "clos-m2n2r2049", "clos-m1000000000n1r2", "clos-m3n2r2048",
		"star-1000000", "star-4097",
	} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("ByName(%q) = %v, want a too-large error", name, err)
		}
	}
}

func TestAllTopologiesValidate(t *testing.T) {
	topos := []Topology{
		mustMesh(t, 3, 4),
		mustMesh(t, 2, 2),
		mustTorus(t, 3, 4),
		mustTorus(t, 4, 4),
		mustHypercube(t, 3),
		mustHypercube(t, 4),
		mustButterfly(t, 2, 3),
		mustButterfly(t, 4, 2),
		mustButterfly(t, 3, 2),
		mustClos(t, 4, 4, 4),
		mustClos(t, 3, 2, 6),
	}
	oct, err := NewOctagon()
	if err != nil {
		t.Fatalf("NewOctagon: %v", err)
	}
	star, err := NewStar(12)
	if err != nil {
		t.Fatalf("NewStar: %v", err)
	}
	topos = append(topos, oct, star)
	for _, topo := range topos {
		if err := Validate(topo); err != nil {
			t.Errorf("Validate(%s): %v", topo.Name(), err)
		}
	}
}

func TestMeshDegrees(t *testing.T) {
	// Paper Section 4.2: in a mesh, interior nodes have 4 neighbours,
	// corners 2, other edge nodes 3.
	m := mustMesh(t, 3, 3)
	wantDeg := map[int]int{0: 2, 1: 3, 2: 2, 3: 3, 4: 4, 5: 3, 6: 2, 7: 3, 8: 2}
	for r, want := range wantDeg {
		in, out := m.RouterDegree(r)
		if in != want || out != want {
			t.Errorf("mesh router %d degree = (%d,%d), want %d", r, in, out, want)
		}
	}
	// 3x3 mesh has 12 undirected = 24 directed links.
	if got := len(m.Links()); got != 24 {
		t.Errorf("mesh-3x3 has %d directed links, want 24", got)
	}
}

func TestTorusDegreesAndWraps(t *testing.T) {
	// Every torus node has exactly 4 neighbours; node 0 of a 3x3 reaches
	// nodes 2 and 6 through wrap-around channels (Fig. 1b).
	m := mustTorus(t, 3, 3)
	for r := 0; r < 9; r++ {
		in, out := m.RouterDegree(r)
		if in != 4 || out != 4 {
			t.Errorf("torus router %d degree = (%d,%d), want 4", r, in, out)
		}
	}
	if got := len(m.Links()); got != 36 {
		t.Errorf("torus-3x3 has %d directed links, want 36", got)
	}
	neighbors := make(map[int]bool)
	for _, a := range m.Graph().Out(0) {
		neighbors[a.To] = true
	}
	for _, want := range []int{1, 2, 3, 6} {
		if !neighbors[want] {
			t.Errorf("torus node 0 missing neighbor %d (have %v)", want, neighbors)
		}
	}
}

func TestHypercubeNeighbors(t *testing.T) {
	// Section 4.2's example: node 2 = (0,1,0) is adjacent to node 6 =
	// (1,1,0); each node of a 3-cube has 3 neighbours at Hamming distance 1.
	h := mustHypercube(t, 3)
	for u := 0; u < 8; u++ {
		in, out := h.RouterDegree(u)
		if in != 3 || out != 3 {
			t.Errorf("hypercube node %d degree = (%d,%d), want 3", u, in, out)
		}
		for _, a := range h.Graph().Out(u) {
			if x := u ^ a.To; x&(x-1) != 0 {
				t.Errorf("hypercube arc %d->%d not Hamming distance 1", u, a.To)
			}
		}
	}
	found := false
	for _, a := range h.Graph().Out(2) {
		if a.To == 6 {
			found = true
		}
	}
	if !found {
		t.Error("node 2 not adjacent to node 6")
	}
}

func TestButterflyStructure(t *testing.T) {
	// 2-ary 3-fly of Fig. 2(b): 3 stages of 4 switches. Stage-0 switch 0
	// connects to stage-1 switches 0 and 2; stage-1 switch 0 connects to
	// stage-2 switches 0 and 1.
	b := mustButterfly(t, 2, 3)
	if b.NumRouters() != 12 || b.NumTerminals() != 8 {
		t.Fatalf("2-ary 3-fly: %d routers %d terminals, want 12/8",
			b.NumRouters(), b.NumTerminals())
	}
	outOf := func(r int) map[int]bool {
		set := make(map[int]bool)
		for _, a := range b.Graph().Out(r) {
			set[a.To] = true
		}
		return set
	}
	// Router indices: stage*4 + switch.
	s0 := outOf(0)
	if !s0[4+0] || !s0[4+2] || len(s0) != 2 {
		t.Errorf("stage0 switch0 connects to %v, want stage1 {0,2}", s0)
	}
	s1 := outOf(4)
	if !s1[8+0] || !s1[8+1] || len(s1) != 2 {
		t.Errorf("stage1 switch0 connects to %v, want stage2 {0,1}", s1)
	}
	// All terminals are always exactly n hops apart.
	for s := 0; s < b.NumTerminals(); s++ {
		for d := 0; d < b.NumTerminals(); d++ {
			if s == d {
				continue
			}
			if got := b.MinHops(s, d); got != 3 {
				t.Errorf("MinHops(%d,%d) = %d, want 3", s, d, got)
			}
		}
	}
}

func TestButterflyUniquePath(t *testing.T) {
	// The quadrant of a butterfly is the unique path: exactly n routers.
	b := mustButterfly(t, 4, 2)
	for s := 0; s < b.NumTerminals(); s++ {
		for d := 0; d < b.NumTerminals(); d++ {
			if s == d {
				continue
			}
			q := b.Quadrant(s, d)
			count := 0
			for _, ok := range q {
				if ok {
					count++
				}
			}
			if count != 2 {
				t.Errorf("butterfly quadrant %d->%d has %d routers, want 2", s, d, count)
			}
			if !q[b.InjectRouter(s)] || !q[b.EjectRouter(d)] {
				t.Errorf("quadrant %d->%d misses endpoints", s, d)
			}
		}
	}
}

func TestClosStructure(t *testing.T) {
	// Fig. 2(a): clos(4,2,4) — switch 0 of stage 1 connects to all four
	// middle switches; 3 hops between any pair; m disjoint middle choices.
	c := mustClos(t, 4, 2, 4)
	if c.NumRouters() != 12 || c.NumTerminals() != 8 {
		t.Fatalf("clos(4,2,4): %d routers %d terminals, want 12/8",
			c.NumRouters(), c.NumTerminals())
	}
	mids := make(map[int]bool)
	for _, a := range c.Graph().Out(0) {
		mids[a.To] = true
	}
	if len(mids) != 4 {
		t.Errorf("ingress 0 reaches %d middles, want 4", len(mids))
	}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			if got := c.MinHops(s, d); got != 3 {
				t.Errorf("clos MinHops(%d,%d) = %d, want 3", s, d, got)
			}
		}
	}
}

func TestOctagonTwoHopProperty(t *testing.T) {
	o, err := NewOctagon()
	if err != nil {
		t.Fatal(err)
	}
	// Any pair of octagon nodes is within 2 link hops (3 router hops).
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			if got := o.MinHops(s, d); got > 3 {
				t.Errorf("octagon MinHops(%d,%d) = %d, want <= 3", s, d, got)
			}
		}
	}
}

func TestStarOneHop(t *testing.T) {
	s, err := NewStar(6)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRouters() != 1 || len(s.Links()) != 0 {
		t.Fatalf("star: %d routers %d links, want 1/0", s.NumRouters(), len(s.Links()))
	}
	if got := s.MinHops(0, 5); got != 1 {
		t.Errorf("star MinHops = %d, want 1", got)
	}
}

func TestMeshQuadrantIsBoundingBox(t *testing.T) {
	m := mustMesh(t, 3, 4).(*meshTopology)
	q := m.Quadrant(1, 11) // (0,1) -> (2,3)
	want := map[int]bool{1: true, 2: true, 3: true, 5: true, 6: true, 7: true, 9: true, 10: true, 11: true}
	for r := 0; r < 12; r++ {
		if q[r] != want[r] {
			t.Errorf("mesh quadrant router %d = %v, want %v", r, q[r], want[r])
		}
	}
}

func TestTorusQuadrantUsesWrap(t *testing.T) {
	// On a 4x4 torus, 0 -> 3 is one hop through the wrap; quadrant must be
	// the two-node wrap interval, not the 4-wide direct interval.
	m := mustTorus(t, 4, 4)
	q := m.Quadrant(0, 3)
	if !q[0] || !q[3] {
		t.Fatal("quadrant misses endpoints")
	}
	if q[1] || q[2] {
		t.Errorf("quadrant took the long way: %v", q[:4])
	}
}

func TestHypercubeQuadrantSubcube(t *testing.T) {
	// Section 4.3's example: src 0 = (0,0,0), dst 3 = (0,1,1): quadrant is
	// the (0,*,*) subcube = nodes {0,1,2,3}.
	h := mustHypercube(t, 3)
	q := h.Quadrant(0, 3)
	for u := 0; u < 8; u++ {
		want := u < 4
		if q[u] != want {
			t.Errorf("hypercube quadrant node %d = %v, want %v", u, q[u], want)
		}
	}
}

func TestEnumerateShapes(t *testing.T) {
	names := func(kind Kind, n int) []string {
		ts, err := Enumerate(kind, n, LibraryOptions{})
		if err != nil {
			t.Fatalf("Enumerate(%v,%d): %v", kind, n, err)
		}
		out := make([]string, len(ts))
		for i, x := range ts {
			out[i] = x.Name()
		}
		return out
	}
	has := func(list []string, want string) bool {
		for _, s := range list {
			if s == want {
				return true
			}
		}
		return false
	}
	m12 := names(Mesh, 12)
	if !has(m12, "mesh-3x4") {
		t.Errorf("mesh configs for 12 cores = %v, want mesh-3x4 present", m12)
	}
	b12 := names(Butterfly, 12)
	if !has(b12, "butterfly-4ary2fly") {
		t.Errorf("butterfly configs for 12 cores = %v, want 4-ary 2-fly (Fig. 6)", b12)
	}
	b6 := names(Butterfly, 6)
	if !has(b6, "butterfly-3ary2fly") {
		t.Errorf("butterfly configs for 6 cores = %v, want 3-ary 2-fly (Fig. 10b)", b6)
	}
	t6 := names(Torus, 6)
	if !has(t6, "torus-3x3") {
		t.Errorf("torus configs for 6 cores = %v, want torus-3x3", t6)
	}
	h12 := names(Hypercube, 12)
	if len(h12) != 1 || h12[0] != "hypercube-4" {
		t.Errorf("hypercube configs for 12 cores = %v, want [hypercube-4]", h12)
	}
	if got := names(Octagon, 9); len(got) != 0 {
		t.Errorf("octagon offered for 9 cores: %v", got)
	}
	// Every shape has its own parameters, so names never repeat and
	// Enumerate needs no deduplication.
	wide := LibraryOptions{IncludeExtras: true, MaxAspect: 100, MaxButterflyRadix: 16, MaxClosFanIn: 16, MaxTerminalSlack: 100}
	for n := 2; n <= 40; n++ {
		lib, err := Library(n, wide)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, topo := range lib {
			if seen[topo.Name()] {
				t.Errorf("Library(%d) lists %s twice", n, topo.Name())
			}
			seen[topo.Name()] = true
		}
	}
}

func TestLibraryValidatesAndCoversKinds(t *testing.T) {
	lib, err := Library(12, LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[Kind]bool)
	for _, topo := range lib {
		if topo.NumTerminals() < 12 {
			t.Errorf("%s cannot host 12 cores", topo.Name())
		}
		if err := Validate(topo); err != nil {
			t.Errorf("Validate(%s): %v", topo.Name(), err)
		}
		kinds[topo.Kind()] = true
	}
	for _, k := range []Kind{Mesh, Torus, Hypercube, Butterfly, Clos, Star} {
		if !kinds[k] {
			t.Errorf("library missing kind %v", k)
		}
	}
	if kinds[Octagon] {
		t.Error("octagon offered for 12 cores")
	}
}

func TestByNameRoundTrip(t *testing.T) {
	lib, err := Library(8, LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range lib {
		got, err := ByName(topo.Name())
		if err != nil {
			t.Errorf("ByName(%s): %v", topo.Name(), err)
			continue
		}
		if got.Name() != topo.Name() {
			t.Errorf("ByName(%s).Name() = %s", topo.Name(), got.Name())
		}
		if got.NumTerminals() != topo.NumTerminals() || got.NumRouters() != topo.NumRouters() {
			t.Errorf("ByName(%s) rebuilt different topology", topo.Name())
		}
	}
	for _, bad := range []string{"mesh-3", "blah", "mesh-3x4x5", "clos-m1", "mesh-3x4 junk"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) succeeded", bad)
		}
	}
}

// Property: for random mesh/torus/hypercube configs and random pairs, the
// quadrant preserves minimum-hop distance and always contains both
// endpoint routers. (Validate checks this exhaustively for fixed sizes;
// here random sizes are covered too.)
func TestQuadrantPreservesDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var topo Topology
		var err error
		switch rng.Intn(3) {
		case 0:
			topo, err = NewMesh(2+rng.Intn(4), 2+rng.Intn(4))
		case 1:
			topo, err = NewTorus(3+rng.Intn(3), 3+rng.Intn(3))
		default:
			topo, err = NewHypercube(2 + rng.Intn(3))
		}
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			s := rng.Intn(topo.NumTerminals())
			d := rng.Intn(topo.NumTerminals())
			if s == d {
				continue
			}
			q := topo.Quadrant(s, d)
			if !q[topo.InjectRouter(s)] || !q[topo.EjectRouter(d)] {
				return false
			}
			qd := topo.Graph().HopDistance(topo.InjectRouter(s), topo.EjectRouter(d), q)
			if qd+1 != topo.MinHops(s, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKindStringAndDirect(t *testing.T) {
	cases := map[Kind]string{
		Mesh: "mesh", Torus: "torus", Hypercube: "hypercube",
		Butterfly: "butterfly", Clos: "clos", Octagon: "octagon", Star: "star",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %s, want %s", int(k), k.String(), want)
		}
	}
	if !Mesh.Direct() || Clos.Direct() || Butterfly.Direct() || Star.Direct() {
		t.Error("Direct() misclassifies")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

// TestChannelsGroupDirectedLinks checks the physical-channel grouping the
// fault subsystem's link-failure elements are built from: every directed
// link lands in exactly one channel, both directions of a bidirectional
// connection share a channel, one-way stage links stand alone, and the
// count agrees with PhysicalLinks.
func TestChannelsGroupDirectedLinks(t *testing.T) {
	topos := []Topology{
		mustMesh(t, 2, 3),
		mustTorus(t, 3, 3),
		mustHypercube(t, 3),
		mustButterfly(t, 2, 3),
		mustClos(t, 3, 4, 3),
	}
	for _, topo := range topos {
		chans := Channels(topo)
		if len(chans) != PhysicalLinks(topo) {
			t.Errorf("%s: %d channels, PhysicalLinks %d", topo.Name(), len(chans), PhysicalLinks(topo))
		}
		seen := make(map[int]bool)
		links := topo.Links()
		for ci, ch := range chans {
			if len(ch) == 0 {
				t.Errorf("%s: empty channel %d", topo.Name(), ci)
			}
			a, b := links[ch[0]].From, links[ch[0]].To
			if a > b {
				a, b = b, a
			}
			for i, id := range ch {
				if seen[id] {
					t.Errorf("%s: link %d in two channels", topo.Name(), id)
				}
				seen[id] = true
				la, lb := links[id].From, links[id].To
				if la > lb {
					la, lb = lb, la
				}
				if la != a || lb != b {
					t.Errorf("%s: channel %d mixes router pairs", topo.Name(), ci)
				}
				if i > 0 && ch[i-1] >= id {
					t.Errorf("%s: channel %d link IDs not increasing", topo.Name(), ci)
				}
			}
		}
		if len(seen) != len(links) {
			t.Errorf("%s: channels cover %d of %d links", topo.Name(), len(seen), len(links))
		}
	}
	// Mesh channels are all bidirectional pairs; butterfly stage links are
	// one-way singletons.
	for _, ch := range Channels(mustMesh(t, 2, 3)) {
		if len(ch) != 2 {
			t.Errorf("mesh channel has %d links, want 2", len(ch))
		}
	}
	for _, ch := range Channels(mustButterfly(t, 2, 3)) {
		if len(ch) != 1 {
			t.Errorf("butterfly channel has %d links, want 1", len(ch))
		}
	}
}

// TestPhysicalLinksMemoized checks that a topology of this package counts
// its channels once, on the object, even when first asked from several
// goroutines at once, and that a foreign implementation wrapping it still
// gets the same count, computed per call.
func TestPhysicalLinksMemoized(t *testing.T) {
	for _, topo := range []Topology{mustMesh(t, 3, 4), mustButterfly(t, 4, 2), mustClos(t, 3, 4, 3)} {
		want := len(Channels(topo))
		b := topo.(sharer).shared()
		if b.physLinks != 0 {
			t.Fatalf("%s: channel count memoized before first use", topo.Name())
		}
		got := make([]int, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = PhysicalLinks(topo)
			}()
		}
		wg.Wait()
		for _, g := range got {
			if g != want {
				t.Errorf("%s: PhysicalLinks %d, want %d", topo.Name(), g, want)
			}
		}
		if b.physLinks != want {
			t.Errorf("%s: memo %d, want %d", topo.Name(), b.physLinks, want)
		}
		if got := PhysicalLinks(unnamed{topo}); got != want {
			t.Errorf("%s: foreign PhysicalLinks %d, want %d", topo.Name(), got, want)
		}
	}
}
