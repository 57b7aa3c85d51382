package route

import (
	"math/rand"
	"slices"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
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

// TestUniformHops checks Router.UniformHops on the default libraries for
// 12, 16 and 32 cores and on synthesized topologies for the same sizes.
// It must hold exactly for Clos networks, butterflies and the star. Where
// it holds, MinHops must be one constant, and every MP, SM and DO route
// of every pair, under random loads, must cross that many routers.
func TestUniformHops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{12, 16, 32} {
		topos, err := topology.Library(n, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		synthesized, err := synth.Candidates(apps.Synthetic(n, 0.2, 600, int64(n)), synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range append(topos, synthesized...) {
			rt := NewRouter()
			rt.Bind(topo)
			k := topo.Kind()
			want := k == topology.Clos || k == topology.Butterfly || k == topology.Star
			if got := rt.UniformHops(); got != want {
				t.Errorf("%s: UniformHops = %v, want %v", topo.Name(), got, want)
			}
			if !want {
				continue
			}
			loads := make([]float64, len(topo.Links()))
			for i := range loads {
				loads[i] = 1000 * rng.Float64()
			}
			hops := topo.MinHops(0, 1)
			var res Result
			numT := topo.NumTerminals()
			for s := 0; s < numT; s++ {
				for d := 0; d < numT; d++ {
					if s == d {
						continue
					}
					if h := topo.MinHops(s, d); h != hops {
						t.Fatalf("%s: MinHops(%d, %d) = %d, want %d", topo.Name(), s, d, h, hops)
					}
					c := comm(0, 0, 1, 100)
					mp, _, err := rt.PathMP(s, d, c, loads, true)
					if err != nil {
						t.Fatal(err)
					}
					do, _, err := rt.PathDO(s, d, c)
					if err != nil {
						t.Fatal(err)
					}
					res.LinkLoads = append(res.LinkLoads[:0], loads...)
					res.RouterLoads = make([]float64, topo.NumRouters())
					m, err := rt.RouteSplitOne(&res, s, d, c, 8, true)
					if err != nil {
						t.Fatal(err)
					}
					lens := []int{len(mp), len(do)}
					for i := 0; i < m; i++ {
						v, _, _ := rt.SplitPath(i)
						lens = append(lens, len(v))
					}
					for _, l := range lens {
						if l != hops {
							t.Fatalf("%s: a route %d->%d crosses %d routers, want %d", topo.Name(), s, d, l, hops)
						}
					}
				}
			}
		}
	}
}

// TestSplitSinglePathReplay checks SM's single-path shortcut: on every
// pair Router.SinglePath flags, under random loads, routing with one
// search must leave bitwise the loads, hop and bandwidth sums, merged
// paths, fractions and chunk folding that a search per chunk leaves.
func TestSplitSinglePathReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var topos []topology.Topology
	for _, n := range []int{12, 16} {
		lib, err := topology.Library(n, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, lib...)
	}
	pairs := 0
	for _, topo := range topos {
		rt, ref := NewRouter(), NewRouter()
		rt.Bind(topo)
		ref.Bind(topo)
		numT := topo.NumTerminals()
		for s := 0; s < numT; s++ {
			for d := 0; d < numT; d++ {
				if s == d || !rt.SinglePath(s, d) {
					continue
				}
				pairs++
				c := comm(0, 0, 1, 1+999*rng.Float64())
				var got, want Result
				got.Reset(len(topo.Links()), topo.NumRouters())
				for i := range got.LinkLoads {
					got.LinkLoads[i] = 1000 * rng.Float64()
				}
				want.LinkLoads = append([]float64(nil), got.LinkLoads...)
				want.RouterLoads = make([]float64, topo.NumRouters())
				n, err := rt.RouteSplitOne(&got, s, d, c, DefaultChunks, true)
				if err != nil {
					t.Fatal(err)
				}
				accs, chunkAcc := splitBySearch(t, ref, s, d, c, &want, DefaultChunks)
				tag := topo.Name()
				if !slices.Equal(got.LinkLoads, want.LinkLoads) || !slices.Equal(got.RouterLoads, want.RouterLoads) ||
					got.HopSumMBps != want.HopSumMBps || got.TotalMBps != want.TotalMBps {
					t.Fatalf("%s %d->%d: loads or sums differ from a search per chunk", tag, s, d)
				}
				if n != len(accs) || !slices.Equal(rt.SplitChunkAcc(), chunkAcc) {
					t.Fatalf("%s %d->%d: %d merged paths, chunks %v; a search per chunk gives %d, %v",
						tag, s, d, n, rt.SplitChunkAcc(), len(accs), chunkAcc)
				}
				for i, a := range accs {
					v, arcs, f := rt.SplitPath(i)
					if !slices.Equal(v, a.verts) || !slices.Equal(arcs, a.arcs) || f != a.fraction {
						t.Fatalf("%s %d->%d: merged path %d differs from a search per chunk", tag, s, d, i)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no single-path pair")
	}
}

// splitBySearch is the oracle of TestSplitSinglePathReplay: SM split
// routing that runs the search for every chunk, with routeSplit's load,
// merge, undo and commit arithmetic.
func splitBySearch(t *testing.T, rt *Router, srcT, dstT int, c graph.Commodity, res *Result, chunks int) ([]accum, []int) {
	t.Helper()
	src, dst := rt.topo.InjectRouter(srcT), rt.topo.EjectRouter(dstT)
	mask, dag := rt.Quadrant(srcT, dstT), rt.MinHopDAG(srcT, dstT)
	frac := 1.0 / float64(chunks)
	var acc []accum
	var chunkAcc []int
	for i := 0; i < chunks; i++ {
		verts, arcs, ok := rt.shortest(src, dst, res.LinkLoads, hopBiasFor(c.ValueMBps), dag, nil, mask)
		if !ok {
			t.Fatalf("no path %d->%d", srcT, dstT)
		}
		bw := c.ValueMBps * frac
		for _, id := range arcs {
			res.LinkLoads[id] += bw
		}
		merged := slices.IndexFunc(acc, func(a accum) bool { return slices.Equal(a.arcs, arcs) })
		if merged == -1 {
			acc = append(acc, accum{verts: slices.Clone(verts), arcs: slices.Clone(arcs)})
			merged = len(acc) - 1
		}
		acc[merged].fraction += frac
		chunkAcc = append(chunkAcc, merged)
	}
	for _, a := range acc {
		bw := c.ValueMBps * a.fraction
		for _, id := range a.arcs {
			res.LinkLoads[id] -= bw
		}
	}
	for _, a := range acc {
		commit(res, c, a.fraction, a.verts, a.arcs, false)
	}
	return acc, chunkAcc
}
