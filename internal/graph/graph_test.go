package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *CoreGraph {
	t.Helper()
	g := NewCoreGraph("small")
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := g.AddCore(Core{Name: n, AreaMM2: 1}); err != nil {
			t.Fatalf("AddCore(%s): %v", n, err)
		}
	}
	g.MustConnect("a", "b", 100)
	g.MustConnect("b", "c", 50)
	g.MustConnect("c", "a", 50)
	g.MustConnect("a", "d", 25)
	return g
}

func TestAddCoreDuplicate(t *testing.T) {
	g := NewCoreGraph("x")
	if _, err := g.AddCore(Core{Name: "a"}); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if _, err := g.AddCore(Core{Name: "a"}); err == nil {
		t.Fatal("duplicate core accepted")
	}
}

func TestAddCoreRejectsBad(t *testing.T) {
	g := NewCoreGraph("x")
	if _, err := g.AddCore(Core{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := g.AddCore(Core{Name: "n", AreaMM2: -1}); err == nil {
		t.Error("negative area accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	g := buildSmall(t)
	if err := g.Connect("a", "zz", 1); err == nil {
		t.Error("unknown destination accepted")
	}
	if err := g.Connect("zz", "a", 1); err == nil {
		t.Error("unknown source accepted")
	}
	if err := g.Connect("a", "a", 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.Connect("a", "b", 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := g.Connect("a", "b", -3); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestCommoditiesSortedDescending(t *testing.T) {
	g := buildSmall(t)
	cs := g.Commodities()
	if len(cs) != 4 {
		t.Fatalf("got %d commodities, want 4", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].ValueMBps > cs[i-1].ValueMBps {
			t.Errorf("commodities not sorted: %v before %v", cs[i-1], cs[i])
		}
	}
	if cs[0].ValueMBps != 100 {
		t.Errorf("largest commodity = %g, want 100", cs[0].ValueMBps)
	}
	for i, c := range cs {
		if c.ID != i {
			t.Errorf("commodity %d has ID %d", i, c.ID)
		}
	}
}

func TestCommoditiesDeterministicTieBreak(t *testing.T) {
	g := buildSmall(t)
	a := g.Commodities()
	b := g.Commodities()
	if !reflect.DeepEqual(a, b) {
		t.Error("Commodities not deterministic")
	}
	// b->c and c->a both have 50; (Src,Dst) order must break the tie.
	if !(a[1].Src < a[2].Src || (a[1].Src == a[2].Src && a[1].Dst < a[2].Dst)) {
		t.Errorf("tie not broken deterministically: %v then %v", a[1], a[2])
	}
}

func TestAggregates(t *testing.T) {
	g := buildSmall(t)
	if got := g.TotalBandwidthMBps(); got != 225 {
		t.Errorf("TotalBandwidth = %g, want 225", got)
	}
	if got := g.MaxEdgeMBps(); got != 100 {
		t.Errorf("MaxEdge = %g, want 100", got)
	}
	// a: out 100+25, in 50 -> 175
	if got := g.CommVolume(0); got != 175 {
		t.Errorf("CommVolume(a) = %g, want 175", got)
	}
	if got := g.CommBetween(0, 1); got != 100 {
		t.Errorf("CommBetween(a,b) = %g, want 100", got)
	}
	if got := g.CommBetween(1, 0); got != 100 {
		t.Errorf("CommBetween(b,a) = %g, want 100", got)
	}
	if got := g.TotalCoreAreaMM2(); got != 4 {
		t.Errorf("TotalCoreArea = %g, want 4", got)
	}
}

func TestNeighbors(t *testing.T) {
	g := buildSmall(t)
	got := g.Neighbors(0) // a talks with b, c, d
	want := []int{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(a) = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildSmall(t)
	c := g.Clone()
	c.MustConnect("d", "a", 7)
	if g.NumEdges() == c.NumEdges() {
		t.Error("clone shares edge storage with original")
	}
	if _, err := c.AddCore(Core{Name: "e"}); err != nil {
		t.Fatalf("clone AddCore: %v", err)
	}
	if _, ok := g.CoreIndex("e"); ok {
		t.Error("clone shares index map with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := buildSmall(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.edges = append(g.edges, Edge{From: 0, To: 99, BandwidthMBps: 1})
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge not caught")
	}
	g.edges = g.edges[:len(g.edges)-1]
	g.edges = append(g.edges, Edge{From: 1, To: 1, BandwidthMBps: 1})
	if err := g.Validate(); err == nil {
		t.Error("self-loop not caught")
	}
	var empty CoreGraph
	if err := empty.Validate(); err == nil {
		t.Error("empty graph passed validation")
	}
}

func TestAspectBoundsDefaults(t *testing.T) {
	c := Core{Name: "x"}
	lo, hi := c.AspectBounds()
	if lo != 0.5 || hi != 2.0 {
		t.Errorf("defaults = (%g,%g), want (0.5,2)", lo, hi)
	}
	c = Core{Name: "x", MinAspect: 2, MaxAspect: 1}
	lo, hi = c.AspectBounds()
	if lo != 1 || hi != 2 {
		t.Errorf("swapped bounds = (%g,%g), want (1,2)", lo, hi)
	}
}

func TestDOTContainsAllCoresAndEdges(t *testing.T) {
	g := buildSmall(t)
	dot := g.DOT()
	for _, n := range []string{"\"a\"", "\"b\"", "\"c\"", "\"d\""} {
		if !strings.Contains(dot, n) {
			t.Errorf("DOT missing node %s", n)
		}
	}
	if !strings.Contains(dot, "\"a\" -> \"b\"") {
		t.Error("DOT missing edge a->b")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# VOPD-ish fragment
app frag
core vld  area=3.0
core rld  area=2.5 soft aspect=0.5,2
core mem  area=6
flow vld -> rld 70
flow rld -> mem 362
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.Name() != "frag" || g.NumCores() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %s", g)
	}
	i, ok := g.CoreIndex("rld")
	if !ok {
		t.Fatal("rld missing")
	}
	c := g.Core(i)
	if !c.Soft || c.MinAspect != 0.5 || c.MaxAspect != 2 || c.AreaMM2 != 2.5 {
		t.Errorf("rld attrs = %+v", c)
	}
	g2, err := ParseString(Format(g))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(g.Cores(), g2.Cores()) || !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Error("Format/Parse did not round-trip")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"core",                           // missing name
		"core a bogus=1",                 // unknown attr
		"core a area=xx",                 // bad float
		"core a aspect=1",                // malformed aspect
		"flow a b 10",                    // missing arrow
		"core a\nflow a -> b 10",         // unknown dest
		"core a\ncore b\nflow a -> b zz", // bad bw
		"wibble 3",                       // unknown directive
		"core a\ncore a",                 // duplicate
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	g, err := ParseString("\n# hi\ncore a area=1 # trailing\n\ncore b\nflow a -> b 5\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumCores() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %s", g)
	}
}

// Property: total bandwidth equals the sum over commodities, and commodity
// extraction preserves every edge exactly once.
func TestCommoditiesPreserveEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewCoreGraph("rand")
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			g.MustAddCore(Core{Name: string(rune('a' + i)), AreaMM2: 1})
		}
		e := 1 + rng.Intn(20)
		for i := 0; i < e; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			g.MustConnect(g.Core(u).Name, g.Core(v).Name, 1+float64(rng.Intn(1000)))
		}
		cs := g.Commodities()
		if len(cs) != g.NumEdges() {
			return false
		}
		var sum float64
		for _, c := range cs {
			sum += c.ValueMBps
		}
		return almostEq(sum, g.TotalBandwidthMBps())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSharedFollowsMutation checks Shared against the copying accessors:
// equal contents, computed once per graph state (repeat calls share one
// backing array), recomputed after AddCore and Connect, and unaffected
// by changes to what Cores and Commodities return.
func TestSharedFollowsMutation(t *testing.T) {
	g := buildSmall(t)
	check := func(when string) {
		t.Helper()
		cores, comms, err := g.Shared()
		if err != nil || !reflect.DeepEqual(cores, g.Cores()) || !reflect.DeepEqual(comms, g.Commodities()) {
			t.Fatalf("%s: Shared = %v, %v, %v; want %v, %v, nil", when, cores, comms, err, g.Cores(), g.Commodities())
		}
		again, comms2, _ := g.Shared()
		if &again[0] != &cores[0] || &comms2[0] != &comms[0] {
			t.Fatalf("%s: Shared recomputed an unchanged graph", when)
		}
	}
	check("built")
	g.Cores()[0].Name = "changed"
	g.Commodities()[0].ValueMBps = -1
	check("after changing copies")
	g.MustAddCore(Core{Name: "e", AreaMM2: 2})
	check("after AddCore")
	g.MustConnect("e", "a", 500)
	check("after Connect")
	if _, comms, _ := g.Shared(); comms[0].Src != 4 {
		t.Errorf("Shared missed the new heaviest flow: %v", comms)
	}
	var empty CoreGraph
	if _, _, err := empty.Shared(); err == nil {
		t.Error("Shared passed an empty graph")
	}
}

// TestSharedConcurrentFirstUse has goroutines race to compute a fresh
// graph's shared state (run with -race): each must get the same lists.
func TestSharedConcurrentFirstUse(t *testing.T) {
	g := buildSmall(t)
	want := g.Commodities()
	done := make(chan []Commodity)
	for i := 0; i < 8; i++ {
		go func() {
			_, comms, _ := g.Shared()
			done <- comms
		}()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Errorf("Shared = %v, want %v", got, want)
		}
	}
}
