package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// fmtTopoDigest is the text encoding topology.Digest replaced, kept as the
// oracle its binary encoding is checked against.
func fmtTopoDigest(t topology.Topology) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d\n", int(t.Kind()), t.NumTerminals(), t.NumRouters())
	for _, l := range t.Links() {
		fmt.Fprintf(h, "l%d:%d>%d\n", l.ID, l.From, l.To)
	}
	for term := 0; term < t.NumTerminals(); term++ {
		x, y := t.TerminalPosition(term)
		fmt.Fprintf(h, "t%d:%d,%d,%g,%g\n", term, t.InjectRouter(term), t.EjectRouter(term), x, y)
	}
	for r := 0; r < t.NumRouters(); r++ {
		x, y := t.Position(r)
		fmt.Fprintf(h, "r%d:%g,%g\n", r, x, y)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// customRing is a four-router ring with one terminal per router; shift
// moves router 0's placement and attach moves terminal 3.
func customRing(t *testing.T, name string, shift float64, attach int) topology.Topology {
	t.Helper()
	topo, err := topology.NewCustom(topology.CustomSpec{
		Name:        name,
		NumRouters:  4,
		BiLinks:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		Terminals:   []int{0, 1, 2, attach},
		RouterPos:   [][2]float64{{shift, 0}, {1, 0}, {1, 1}, {0, 1}},
		TerminalPos: [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// digestCorpus is every library topology for 2–64 cores with the
// extensions, the synthesized candidates of the four paper apps and a
// few custom rings, some structurally identical under other names.
func digestCorpus(t *testing.T) []topology.Topology {
	t.Helper()
	var corpus []topology.Topology
	for n := 2; n <= 64; n++ {
		lib, err := topology.Library(n, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, lib...)
	}
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := synth.Candidates(app, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, cands...)
	}
	return append(corpus,
		customRing(t, "ring-a", 0, 3),
		customRing(t, "ring-b", 0, 3),
		customRing(t, "ring-shifted", 0.5, 3),
		customRing(t, "ring-negzero", math.Copysign(0, -1), 3),
		customRing(t, "ring-reattached", 0, 2),
	)
}

// TestTopoDigestMatchesFmtOracle checks the binary digest partitions the
// corpus exactly as the text digest did: two topologies share a binary
// digest iff they share a text digest.
func TestTopoDigestMatchesFmtOracle(t *testing.T) {
	corpus := digestCorpus(t)
	binOf := make(map[string][sha256.Size]byte)
	txtOf := make(map[[sha256.Size]byte]string)
	for _, topo := range corpus {
		bin, txt := topology.Digest(topo), fmtTopoDigest(topo)
		if b, ok := binOf[txt]; ok && b != bin {
			t.Errorf("%s: text digest matches an earlier topology's, binary digest does not", topo.Name())
		}
		if x, ok := txtOf[bin]; ok && x != txt {
			t.Errorf("%s: binary digest matches an earlier topology's, text digest does not", topo.Name())
		}
		binOf[txt], txtOf[bin] = bin, txt
	}
	if len(binOf) < len(corpus)/4 {
		t.Errorf("only %d distinct structures among %d topologies: the corpus tests little", len(binOf), len(corpus))
	}
}

// TestEvaluateDigestsEachTopologyOnce runs a routing-sweep-shaped job
// list — one library topology, four option sets — and checks the
// topology's structure is hashed once per object, not once per run:
// warm key building allocates only the key list, where hashing a
// structure allocates its SHA-256 state.
func TestEvaluateDigestsEachTopologyOnce(t *testing.T) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, fn := range []route.Function{route.DimensionOrdered, route.MinPath, route.SplitMin, route.SplitAll} {
		o := vopdOpts()
		o.Routing = fn
		jobs = append(jobs, Job{Topo: mesh, Opts: o})
	}
	app := apps.VOPD()
	cold, err := cacheKeys(app, jobs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		warm, err := cacheKeys(app, jobs)
		if err != nil || !slices.Equal(warm, cold) {
			t.Fatalf("warm keys differ from the first run's (err %v)", err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm key building allocates %.0f times, want 1 (the key list)", allocs)
	}
}

// uncomparable is a Topology whose dynamic value cannot be a map key.
type uncomparable struct {
	topology.Topology
	tags []string
}

// TestEvaluateUncomparableTopology checks key building and routing
// accept a value-typed, non-comparable Topology implementation without
// panicking, and that two such values of one network share their cache
// entry.
func TestEvaluateUncomparableTopology(t *testing.T) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	lib := []topology.Topology{uncomparable{mesh, []string{"a"}}, uncomparable{mesh, []string{"b"}}}
	outs, err := Sweep(context.Background(), apps.VOPD(), lib, vopdOpts(), Options{Parallelism: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Errorf("outcome %d: %v", i, o.Err)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 entry", st)
	}
}

// panicky panics in Links, a method only key building calls before the
// fan-out.
type panicky struct{ topology.Topology }

func (panicky) Links() []topology.Link { panic("boom") }

func TestEvaluateKeyPanicIsError(t *testing.T) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Sweep(context.Background(), apps.VOPD(), []topology.Topology{panicky{mesh}}, vopdOpts(), Options{Cache: NewCache()})
	if !errors.Is(err, ErrPanic) {
		t.Errorf("Sweep returned %v, want an ErrPanic error", err)
	}
}

// TestCacheConcurrentGetPut hammers one cache with concurrent lookups
// and inserts (run it under -race) and checks the counters add up.
func TestCacheConcurrentGetPut(t *testing.T) {
	const workers, keys = 4, 64
	c := NewCache()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := sha256.Sum256([]byte{byte(i)})
				if _, ok := c.get(k); !ok && i%workers == w {
					c.put(k, entry{})
				}
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*keys {
		t.Errorf("hits %d + misses %d, want %d lookups", st.Hits, st.Misses, workers*keys)
	}
	if st.Entries != keys {
		t.Errorf("%d entries, want %d", st.Entries, keys)
	}
}

// warmNetProcSweep returns the 16-core NetProc app, its library, the
// options and an engine configuration whose cache already holds the
// whole sweep.
func warmNetProcSweep(tb testing.TB) (*graph.CoreGraph, []topology.Topology, mapping.Options, Options) {
	tb.Helper()
	app := apps.NetProc()
	lib, err := topology.Library(app.NumCores(), topology.LibraryOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	opts := mapping.Options{Routing: route.MinPath, Objective: mapping.MinDelay}
	eo := Options{Parallelism: 1, Cache: NewCache()}
	if _, err := Sweep(context.Background(), app, lib, opts, eo); err != nil {
		tb.Fatal(err)
	}
	return app, lib, opts, eo
}

// maxHitAllocs is the measured allocation count of a warm 16-core
// library sweep: the job, key and outcome lists, the run-local scratch
// list and Fan's fixed cost. Text-formatted keys took 1,353, and a
// per-run topology-digest map 21.
const maxHitAllocs = 18

// TestEvaluateHitAllocs is the hit path's allocation gate.
func TestEvaluateHitAllocs(t *testing.T) {
	app, lib, opts, eo := warmNetProcSweep(t)
	before := eo.Cache.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Sweep(context.Background(), app, lib, opts, eo); err != nil {
			t.Fatal(err)
		}
	})
	if st := eo.Cache.Stats(); st.Misses != before.Misses {
		t.Fatalf("warm sweeps missed: %+v before, %+v after", before, st)
	}
	if allocs > maxHitAllocs {
		t.Errorf("warm sweep of %d topologies allocates %.0f times, want at most %d", len(lib), allocs, maxHitAllocs)
	}
}

// BenchmarkEvaluateHit times a 16-core library sweep served wholly from
// a warm cache: key building, lookups and the fan-out.
func BenchmarkEvaluateHit(b *testing.B) {
	app, lib, opts, eo := warmNetProcSweep(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Sweep(context.Background(), app, lib, opts, eo); err != nil {
			b.Fatal(err)
		}
	}
}
