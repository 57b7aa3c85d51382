package search

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/work_counts.golden from this run")

// memoApps are the applications the memo tests walk chains over: the
// four paper apps and two random ones of the search-jobs workload's
// sizes.
func memoApps(t testing.TB) []*graph.CoreGraph {
	var out []*graph.CoreGraph
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, app)
	}
	return append(out, RandomApp(1, 16), RandomApp(1, 24))
}

// newTestChain builds a chain over app the way runChain does, from the
// first seed candidate that evaluates, with the memo on or off.
func newTestChain(t testing.TB, app *graph.CoreGraph, seed int64, memo bool) *chain {
	terms := app.NumCores()
	o, b, err := Options{Seed: seed, Mapping: mpeg4Opts()}.withDefaults(terms)
	if err != nil {
		t.Fatal(err)
	}
	ch := &chain{
		rng:  rand.New(rand.NewSource(seed)),
		ev:   newEvaluator(app.Commodities(), terms, b, o.Mapping),
		cur:  newCand(b.maxR, terms),
		next: newCand(b.maxR, terms),
		best: newCand(b.maxR, terms),
	}
	if !memo {
		ch.ev.memo = evalMemo{}
	}
	for _, init := range initialCandidates(app, terms, b) {
		ch.cur.copyFrom(init)
		if fit, ok := ch.ev.eval(ch.cur); ok {
			ch.curFit, ch.bestFit = fit, fit
			ch.best.copyFrom(ch.cur)
			ch.temp, ch.cool = 0.25*fit, math.Pow(1e-3, 1.0/3000)
			return ch
		}
	}
	t.Fatalf("%s: no seed candidate evaluates", app.Name())
	return nil
}

// TestMemoHitsMatchRoutedEval checks the memo's exactness on real chain
// walks: every hit returns bit for bit the fitness and verdict a fresh,
// memo-less evaluator computes by routing the candidate, and a chain with
// the memo walks exactly the chain without it.
func TestMemoHitsMatchRoutedEval(t *testing.T) {
	for _, app := range memoApps(t) {
		t.Run(app.Name(), func(t *testing.T) {
			on := newTestChain(t, app, 1, true)
			off := newTestChain(t, app, 1, false)
			terms := app.NumCores()
			_, b, _ := Options{}.withDefaults(terms)
			for i := 0; i < 3000; i++ {
				hits, accepted := on.ev.hits, on.accepted
				on.step()
				off.step()
				if on.ev.hits > hits {
					c := on.next
					if on.accepted > accepted {
						c = on.cur
					}
					m := &on.ev.memo
					m.encode(c)
					got := m.vals[m.slot()]
					fresh := newEvaluator(app.Commodities(), terms, b, mpeg4Opts())
					fresh.memo = evalMemo{}
					fit, ok := fresh.eval(c)
					if math.Float64bits(fit) != math.Float64bits(got.fit) || ok != got.ok {
						t.Fatalf("step %d: memo hit (%v, %v), routed (%v, %v)", i, got.fit, got.ok, fit, ok)
					}
				}
				if math.Float64bits(on.curFit) != math.Float64bits(off.curFit) || on.accepted != off.accepted {
					t.Fatalf("step %d: chains diverged: fit %v/%v accepted %d/%d", i, on.curFit, off.curFit, on.accepted, off.accepted)
				}
			}
			if !structEqual(snapshot(on.best, on.bestFit), snapshot(off.best, off.bestFit)) {
				t.Fatal("chains ended on different best candidates")
			}
			if on.ev.hits == 0 {
				t.Fatal("the walk produced no memo hit; the test checks nothing")
			}
			if on.ev.routed+on.ev.hits != off.ev.routed {
				t.Fatalf("routed %d + hits %d != memo-less routed %d", on.ev.routed, on.ev.hits, off.ev.routed)
			}
		})
	}
}

// keyOf returns a copy of c's memo key under m.
func keyOf(m *evalMemo, c *cand) []uint64 {
	m.encode(c)
	return slices.Clone(m.key)
}

// TestMemoKeyInjective checks that candidates differing in one edge, one
// attachment or the router count get distinct keys, and that the key does
// not depend on the order the edges were added in.
func TestMemoKeyInjective(t *testing.T) {
	const maxR, terms = 12, 12
	b := bounds{maxRadix: 4, maxCores: 4, minR: 3, maxR: maxR}
	m := newEvalMemo(maxR, terms)
	base := pathInit(terms, b) // routers 0-1-2, four terminals each
	cases := []struct {
		name string
		edit func(c *cand)
	}{
		{"add edge", func(c *cand) { c.addEdge(0, 2) }},
		{"remove edge", func(c *cand) { c.removeEdge(1, 2) }},
		{"move edge", func(c *cand) { c.removeEdge(1, 2); c.addEdge(0, 2) }},
		{"move first terminal", func(c *cand) { c.att[0] = 1 }},
		{"move last terminal", func(c *cand) { c.att[terms-1] = 1 }},
		{"swap two terminals", func(c *cand) { c.att[0], c.att[terms-1] = c.att[terms-1], c.att[0] }},
		{"one more router", func(c *cand) { c.nR++ }},
		{"attach to a high router", func(c *cand) { c.nR = maxR; c.att[5] = maxR - 1 }},
		{"edge of the last pair", func(c *cand) { c.nR = maxR; c.addEdge(maxR-2, maxR-1) }},
	}
	seen := map[string][]uint64{"base": keyOf(&m, base)}
	for _, tc := range cases {
		c := newCand(maxR, terms)
		c.copyFrom(base)
		tc.edit(c)
		k := keyOf(&m, c)
		for name, other := range seen {
			if slices.Equal(k, other) {
				t.Errorf("%q and %q share a key", tc.name, name)
			}
		}
		seen[tc.name] = k
	}

	// The same structure built in the opposite edge order.
	rev := newCand(maxR, terms)
	rev.nR = base.nR
	copy(rev.att, base.att)
	for i := len(base.edges) - 1; i >= 0; i-- {
		rev.addEdge(base.edges[i][1], base.edges[i][0])
	}
	if !slices.Equal(keyOf(&m, rev), seen["base"]) {
		t.Error("edge insertion order changed the key")
	}
}

// TestMemoKeyMatchesStructure checks injectivity on candidates the
// mutation operators produce: over a random walk of 24-terminal
// candidates, whose attachment field crosses key word boundaries, two
// candidates share a key exactly when their canonical structures are
// equal.
func TestMemoKeyMatchesStructure(t *testing.T) {
	app := RandomApp(3, 24)
	terms := app.NumCores()
	_, b, err := Options{}.withDefaults(terms)
	if err != nil {
		t.Fatal(err)
	}
	m := newEvalMemo(b.maxR, terms)
	rng := rand.New(rand.NewSource(5))
	c := pathInit(terms, b)
	var keys [][]uint64
	var structs []Candidate
	for i := 0; i < 400; i++ {
		c.mutate(rng, b)
		keys = append(keys, keyOf(&m, c))
		structs = append(structs, snapshot(c, 0))
	}
	equalPairs := 0
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			same := structEqual(structs[i], structs[j])
			if same {
				equalPairs++
			}
			if slices.Equal(keys[i], keys[j]) != same {
				t.Fatalf("candidates %d and %d: key equal %v, structure equal %v", i, j, !same, same)
			}
		}
	}
	if equalPairs == 0 {
		t.Fatal("the walk revisited no candidate; the test checks only one direction")
	}
}

// TestMemoArenaBound checks the memo's memory bound: a 256-core request
// gets a smaller table within the arena bound and still hits, and a
// request whose key alone exceeds the bound gets no memo.
func TestMemoArenaBound(t *testing.T) {
	app := RandomApp(1, 256)
	terms := app.NumCores()
	o, b, err := Options{Mapping: mpeg4Opts()}.withDefaults(terms)
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(app.Commodities(), terms, b, o.Mapping)
	m := &ev.memo
	if m.words == 0 {
		t.Fatal("a 256-core request got no memo")
	}
	if arena := 8 * len(m.keys); arena > memoArenaBytes {
		t.Errorf("key arena %d bytes exceeds the %d-byte bound", arena, memoArenaBytes)
	}
	if slots := len(m.vals); slots >= memoSlots || len(m.keys) != slots*m.words {
		t.Errorf("%d slots of %d words: want fewer than %d sharing one arena", slots, m.words, memoSlots)
	}
	c := pathInit(terms, b)
	fit, ok := ev.eval(c)
	if fit2, ok2 := ev.eval(c); ev.hits != 1 || ev.routed != 1 || fit2 != fit || ok2 != ok {
		t.Errorf("second eval: hits %d routed %d, (%v, %v) then (%v, %v)", ev.hits, ev.routed, fit, ok, fit2, ok2)
	}

	if m := newEvalMemo(2048, 2048); m.words != 0 || m.keys != nil {
		t.Errorf("2048 routers: memo of %d words, want none", m.words)
	}
}

// workCountApps are the applications the search work-count golden pins.
func workCountApps(t testing.TB) []*graph.CoreGraph {
	var out []*graph.CoreGraph
	for _, name := range []string{"mpeg4", "vopd"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, app)
	}
	return append(out, RandomApp(1, 16), RandomApp(1, 24))
}

// TestSearchWorkCountsGolden pins each annealing chain's work counters —
// evaluations charged, candidates routed, memo hits and acceptances — at
// budget 20000, seed 1, in testdata/work_counts.golden. Like the mapper's
// TestWorkCountsGolden, the counts are a pure function of the inputs, so
// a change that saves or adds routing shows here and must be explained.
// Regenerate the file with
//
//	go test -run TestSearchWorkCountsGolden ./internal/search -update
func TestSearchWorkCountsGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# Work counters of each annealing chain at budget 20000, seed 1 (see TestSearchWorkCountsGolden).\n")
	for _, app := range workCountApps(t) {
		terms := app.NumCores()
		o, b, err := Options{Budget: 20000, Seed: 1, Mapping: mpeg4Opts()}.withDefaults(terms)
		if err != nil {
			t.Fatal(err)
		}
		comms := app.Commodities()
		inits := initialCandidates(app, terms, b)
		per, rem := o.Budget/o.Restarts, o.Budget%o.Restarts
		for i := 0; i < o.Restarts; i++ {
			budget := per
			if i < rem {
				budget++
			}
			cr := runChain(context.Background(), comms, terms, o, b, i, budget, inits[i%len(inits)])
			if cr.err != nil {
				t.Fatalf("%s chain %d: %v", app.Name(), i, cr.err)
			}
			fmt.Fprintf(&sb, "%s chain=%d evals=%d routed=%d memo-hits=%d accepted=%d\n",
				app.Name(), i, cr.evals, cr.routed, cr.memoHits, cr.accepted)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "work_counts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("search work counts differ from %s; explain the change, then rerun with -update.\ngot:\n%swant:\n%s", path, got, want)
	}
}
