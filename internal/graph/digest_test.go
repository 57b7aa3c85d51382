package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

func digestGraph(name string, bw float64) *CoreGraph {
	g := NewCoreGraph(name)
	g.MustAddCore(Core{Name: "a", AreaMM2: 1})
	g.MustAddCore(Core{Name: "b", AreaMM2: 2})
	g.MustConnect("a", "b", bw)
	return g
}

func TestDigestStableAndNameIndependent(t *testing.T) {
	a := digestGraph("one", 100)
	if a.Digest() != a.Digest() {
		t.Fatal("digest not stable across calls")
	}
	if a.Digest() != digestGraph("two", 100).Digest() {
		t.Error("digest depends on the application name; renames should not invalidate the cache")
	}
	if a.Digest() != a.Clone().Digest() {
		t.Error("clone changed the digest")
	}
}

func TestDigestSensitiveToContent(t *testing.T) {
	base := digestGraph("app", 100)
	if base.Digest() == digestGraph("app", 200).Digest() {
		t.Error("bandwidth change did not change the digest")
	}
	moreCores := digestGraph("app", 100)
	moreCores.MustAddCore(Core{Name: "c", AreaMM2: 3})
	if base.Digest() == moreCores.Digest() {
		t.Error("extra core did not change the digest")
	}
	softer := NewCoreGraph("app")
	softer.MustAddCore(Core{Name: "a", AreaMM2: 1, Soft: true})
	softer.MustAddCore(Core{Name: "b", AreaMM2: 2})
	softer.MustConnect("a", "b", 100)
	if base.Digest() == softer.Digest() {
		t.Error("soft-block flag did not change the digest")
	}
}

// fmtDigest is the text encoding Digest replaced, kept as the oracle its
// binary encoding is checked against.
func fmtDigest(g *CoreGraph) string {
	h := sha256.New()
	fmt.Fprintf(h, "cores:%d\n", len(g.cores))
	for _, c := range g.cores {
		lo, hi := c.AspectBounds()
		fmt.Fprintf(h, "%s|%g|%t|%g|%g\n", c.Name, c.AreaMM2, c.Soft, lo, hi)
	}
	fmt.Fprintf(h, "edges:%d\n", len(g.edges))
	for _, e := range g.edges {
		fmt.Fprintf(h, "%d>%d|%g\n", e.From, e.To, e.BandwidthMBps)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestMatchesFmtOracle checks the binary digest partitions graphs
// exactly as the text digest did, over graphs that differ in one core
// attribute, one edge, order, -0 or a spelled-out default.
func TestDigestMatchesFmtOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	build := func(edit func(cores []Core, bw []float64) []Core) *CoreGraph {
		cores := []Core{{Name: "a", AreaMM2: 1}, {Name: "b", AreaMM2: 2, Soft: true}, {Name: "c", AreaMM2: 3}}
		bw := []float64{100, 50}
		cores = edit(cores, bw)
		g := NewCoreGraph("app")
		for _, c := range cores {
			g.MustAddCore(c)
		}
		g.MustConnect(cores[0].Name, cores[1].Name, bw[0])
		g.MustConnect(cores[1].Name, cores[2].Name, bw[1])
		return g
	}
	edits := []func([]Core, []float64) []Core{
		func(c []Core, _ []float64) []Core { return c },
		func(c []Core, _ []float64) []Core { c[0].Name = "a2"; return c },
		func(c []Core, _ []float64) []Core { c[0].AreaMM2 = 1.5; return c },
		func(c []Core, _ []float64) []Core { c[0].AreaMM2 = negZero; return c },
		func(c []Core, _ []float64) []Core { c[0].AreaMM2 = 0; return c },
		func(c []Core, _ []float64) []Core { c[2].Soft = true; return c },
		func(c []Core, _ []float64) []Core { c[1].MinAspect = 0.5; return c },
		func(c []Core, _ []float64) []Core { c[1].MinAspect = 0.25; return c },
		func(c []Core, _ []float64) []Core { c[1].MaxAspect = 3; return c },
		func(c []Core, _ []float64) []Core { c[1].MinAspect, c[1].MaxAspect = 3, 1; return c },
		func(c []Core, _ []float64) []Core { c[1].MinAspect, c[1].MaxAspect = 1, 3; return c },
		func(c []Core, bw []float64) []Core { bw[0] = 200; return c },
		func(c []Core, bw []float64) []Core { bw[1] = 50.5; return c },
		func(c []Core, _ []float64) []Core { c[0], c[2] = c[2], c[0]; return c },
	}
	graphs := []*CoreGraph{}
	for _, e := range edits {
		graphs = append(graphs, build(e))
	}
	for i, a := range graphs {
		for j, b := range graphs[i+1:] {
			if bin, txt := a.Digest() == b.Digest(), fmtDigest(a) == fmtDigest(b); bin != txt {
				t.Errorf("graphs %d and %d: binary digests equal %t, text digests equal %t", i, i+1+j, bin, txt)
			}
		}
	}
}

// TestDigestFollowsGraphState checks the memoized digest is dropped when
// the graph changes and carried by an unchanged clone.
func TestDigestFollowsGraphState(t *testing.T) {
	g := digestGraph("app", 100)
	before := g.Digest()
	if g.Clone().Digest() != before {
		t.Error("clone of an unchanged graph has a different digest")
	}
	g.MustAddCore(Core{Name: "c", AreaMM2: 3})
	afterCore := g.Digest()
	if afterCore == before {
		t.Error("digest unchanged after AddCore")
	}
	g.MustConnect("b", "c", 10)
	if g.Digest() == afterCore {
		t.Error("digest unchanged after Connect")
	}
	if g.Clone().Digest() != g.Digest() {
		t.Error("clone of a changed graph has a different digest")
	}
	if g.Digest() != fresh(g).Digest() {
		t.Error("memoized digest differs from a freshly built graph's")
	}
}

// fresh rebuilds g core by core and edge by edge, with no memoized state.
func fresh(g *CoreGraph) *CoreGraph {
	f := NewCoreGraph(g.Name())
	for _, c := range g.Cores() {
		f.MustAddCore(c)
	}
	for _, e := range g.Edges() {
		f.MustConnect(g.Core(e.From).Name, g.Core(e.To).Name, e.BandwidthMBps)
	}
	return f
}
