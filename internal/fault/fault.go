// Package fault is SUNMAP's reliability subsystem. It models failure
// scenarios as masked link/switch sets, replays a mapped design's
// commodities around each mask with degraded-mode rerouting, and
// aggregates survivability — the fraction of scenarios under which the
// design stays connected and bandwidth-feasible — together with the
// worst-case and expected degradation of link load and hop count.
//
// Failure elements are physical channels (both directions of a
// bidirectional connection fail together; see topology.Channels) and/or
// switches (every incident link fails and any core attached to the
// switch is cut off). Scenarios of k simultaneous element failures are
// enumerated exhaustively for k <= 2 and drawn by deterministic seeded
// Monte Carlo above that, pre-drawn before any parallel sweep so the
// scenario set is byte-identical at every parallelism setting. A sweep
// fans its distinct scenarios through engine.Fan, so it takes session
// limiter slots by the engine's one admission rule.
//
// The approach follows the fault-tolerant application-specific topology
// generation literature (Chen et al., arXiv:1908.00165); feeding the
// resulting reliability score into selection and Pareto exploration as
// an extra objective follows the multi-objective NoC design framing of
// Kao & Fink (arXiv:1807.11607).
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"sunmap/internal/topology"
)

// Elements selects what can fail.
type Elements int

const (
	// Links fails physical channels: every directed link of one
	// unordered router pair goes down together.
	Links Elements = iota
	// Switches fails routers: all incident links go down and cores
	// attached to the switch are cut off.
	Switches
	// Both draws elements from channels and switches alike.
	Both
)

// String returns the wire spelling of the element class.
func (e Elements) String() string {
	switch e {
	case Links:
		return "links"
	case Switches:
		return "switches"
	case Both:
		return "both"
	default:
		return fmt.Sprintf("elements(%d)", int(e))
	}
}

// ParseElements converts the wire spelling ("links", "switches", "both";
// empty selects links) to an Elements value.
func ParseElements(s string) (Elements, error) {
	switch s {
	case "", "links":
		return Links, nil
	case "switches":
		return Switches, nil
	case "both":
		return Both, nil
	}
	return 0, fmt.Errorf("fault: unknown element class %q (want links, switches or both)", s)
}

// Model parameterizes a failure sweep.
type Model struct {
	// K is the number of simultaneous element failures (default 1).
	K int
	// Elements selects the failable element class (default Links).
	Elements Elements
	// Samples is the Monte Carlo scenario count used when sampling
	// (default 2048).
	Samples int
	// Seed drives the scenario sampling; a given seed always draws the
	// same scenario sequence.
	Seed int64
	// ForceSampling draws Monte Carlo scenarios even when K <= 2 would
	// be enumerated exhaustively — for huge topologies, and for the
	// convergence tests pinning the sampler against the exhaustive set.
	ForceSampling bool
}

func (m Model) withDefaults() Model {
	if m.K <= 0 {
		m.K = 1
	}
	if m.Samples <= 0 {
		m.Samples = 2048
	}
	return m
}

// exhaustiveMaxK is the largest K enumerated exhaustively: singles and
// pairs cover the wear-out and manufacturing-fault cases designers
// actually budget for; beyond that the combination count explodes and
// sampling takes over.
const exhaustiveMaxK = 2

// Scenario is one failure mask: the directed link IDs down (including
// every link incident to a failed switch) and the failed switches, both
// in increasing order.
type Scenario struct {
	Links    []int `json:"links,omitempty"`
	Switches []int `json:"switches,omitempty"`
}

// element is one failable unit of the enumeration universe.
type element struct {
	links []int // directed link IDs this element takes down
	sw    int   // failed router, -1 for a channel element
}

// elementsOf builds the failure universe for a topology: channels first
// (in topology.Channels order), then switches by router index.
func elementsOf(topo topology.Topology, class Elements) []element {
	var els []element
	if class == Links || class == Both {
		for _, ch := range topology.Channels(topo) {
			els = append(els, element{links: ch, sw: -1})
		}
	}
	if class == Switches || class == Both {
		incident := make([][]int, topo.NumRouters())
		for _, l := range topo.Links() {
			incident[l.From] = append(incident[l.From], l.ID)
			incident[l.To] = append(incident[l.To], l.ID)
		}
		for r := 0; r < topo.NumRouters(); r++ {
			els = append(els, element{links: incident[r], sw: r})
		}
	}
	return els
}

// scenarioBuilder assembles a scenario set into shared arenas. Each
// scenario's link list is deduplicated against an epoch-stamped table (a
// channel and an adjacent failed switch can overlap), sorted in a reused
// scratch buffer and appended to a flat arena; the []Scenario headers are
// built only once the arenas are final, so they stay valid across arena
// growth. The old per-scenario map+append+sort build cost O(scenarios·k)
// allocations; the builder costs O(log) arena growths regardless of the
// scenario count.
type scenarioBuilder struct {
	els     []element
	links   []int // flat arena of per-scenario sorted link lists
	sws     []int // flat arena of per-scenario sorted switch lists
	offs    []int // 4 entries per scenario: linkLo, linkHi, swLo, swHi
	stamp   []int // stamp[linkID] == epoch marks a link already gathered
	epoch   int
	scratch []int
	subset  []int
}

func newScenarioBuilder(els []element, numLinks int) *scenarioBuilder {
	return &scenarioBuilder{els: els, stamp: make([]int, numLinks)}
}

// add folds one element subset into the arenas as the next scenario.
func (b *scenarioBuilder) add(subset []int) {
	b.epoch++
	ll, sl := len(b.links), len(b.sws)
	sc := b.scratch[:0]
	for _, ei := range subset {
		e := b.els[ei]
		if e.sw >= 0 {
			b.sws = append(b.sws, e.sw)
		}
		for _, id := range e.links {
			if b.stamp[id] != b.epoch {
				b.stamp[id] = b.epoch
				sc = append(sc, id)
			}
		}
	}
	sort.Ints(sc)
	b.scratch = sc
	b.links = append(b.links, sc...)
	sort.Ints(b.sws[sl:])
	b.offs = append(b.offs, ll, len(b.links), sl, len(b.sws))
}

// scenarios materializes the Scenario headers over the final arenas.
// Empty lists stay nil so scenarios compare equal to their pre-arena
// representation.
func (b *scenarioBuilder) scenarios() []Scenario {
	out := make([]Scenario, len(b.offs)/4)
	for i := range out {
		ll, lh, sl, sh := b.offs[4*i], b.offs[4*i+1], b.offs[4*i+2], b.offs[4*i+3]
		if lh > ll {
			out[i].Links = b.links[ll:lh:lh]
		}
		if sh > sl {
			out[i].Switches = b.sws[sl:sh:sh]
		}
	}
	return out
}

// Scenarios builds the failure-scenario set for a topology under a
// model: every k-subset of the element universe for k <= 2, a
// deterministic Monte Carlo draw of Samples uniform k-subsets above that
// (or when ForceSampling is set). The returned bool reports whether the
// set is exhaustive. Scenario order is deterministic for a given
// (topology, model) pair.
func Scenarios(topo topology.Topology, m Model) ([]Scenario, bool, error) {
	m = m.withDefaults()
	els := elementsOf(topo, m.Elements)
	if len(els) == 0 {
		return nil, false, fmt.Errorf("fault: %s has no %s elements", topo.Name(), m.Elements)
	}
	if m.K > len(els) {
		return nil, false, fmt.Errorf("fault: k=%d exceeds the %d %s elements of %s",
			m.K, len(els), m.Elements, topo.Name())
	}
	bld := newScenarioBuilder(els, len(topo.Links()))
	if m.K <= exhaustiveMaxK && !m.ForceSampling {
		enumerate(bld, m.K)
		return bld.scenarios(), true, nil
	}
	sample(bld, m)
	return bld.scenarios(), false, nil
}

// enumerate adds every k-subset of the element universe, k in {1, 2}.
func enumerate(b *scenarioBuilder, k int) {
	switch k {
	case 1:
		for i := range b.els {
			b.subset = append(b.subset[:0], i)
			b.add(b.subset)
		}
	case 2:
		for i := range b.els {
			for j := i + 1; j < len(b.els); j++ {
				b.subset = append(b.subset[:0], i, j)
				b.add(b.subset)
			}
		}
	default:
		panic(fmt.Sprintf("fault: enumerate called with k=%d", k))
	}
}

// sample adds Samples uniform k-subsets of the element universe drawn
// with a seeded partial Fisher–Yates shuffle. Draws are independent (the
// same subset can recur), which is what makes the per-scenario average an
// unbiased estimator of the exhaustive one.
func sample(b *scenarioBuilder, m Model) {
	rng := rand.New(rand.NewSource(m.Seed))
	idx := make([]int, len(b.els))
	for i := range idx {
		idx[i] = i
	}
	for s := 0; s < m.Samples; s++ {
		for j := 0; j < m.K; j++ {
			k := j + rng.Intn(len(idx)-j)
			idx[j], idx[k] = idx[k], idx[j]
		}
		b.subset = append(b.subset[:0], idx[:m.K]...)
		b.add(b.subset)
	}
}
