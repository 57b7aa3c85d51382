// Package sim is a cycle-accurate flit-level network-on-chip simulator:
// input-buffered wormhole routers with credit-based flow control and
// round-robin switch allocation, matching the ×pipes-style networks whose
// SystemC simulations produce the paper's Figs. 8(b) and 10(c). It stands
// in for the paper's cycle-accurate SystemC runs (see DESIGN.md).
//
// Packets follow statically precomputed routes (per source/destination
// terminal pair, possibly several weighted paths — Clos middle diversity is
// modelled by picking a path per packet). Flits advance one link per
// ChannelDelay+RouterDelay cycles when buffers and credits allow; a packet
// holds an output port from head to tail (wormhole).
//
// A run is single-goroutine and shares nothing with other runs, and it is
// a pure function of its Config (seed included). The package has no
// concurrency of its own: a rate sweep (Session.Simulate, the Fig. 8(b)
// reproduction) fans its RunContext calls through engine.Fan, which
// admits each worker on the session limiter.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

// Path is one static route between two terminals: the link IDs traversed
// in order (empty for hub topologies where inject == eject router).
type Path struct {
	LinkIDs []int
	Weight  float64
}

// RouteTable holds the static routes for every ordered terminal pair.
type RouteTable struct {
	n     int
	paths [][]Path // index src*n+dst
}

// Paths returns the route set for (src, dst).
func (rt *RouteTable) Paths(src, dst int) []Path { return rt.paths[src*rt.n+dst] }

// RNG is the simulator's randomness source — injection timing, pattern
// destinations and Clos path picking all draw from it. It is the
// traffic-package interface; *math/rand.Rand satisfies it.
type RNG = traffic.RNG

// Config parameterizes one simulation run.
type Config struct {
	// Topo is the network topology.
	Topo topology.Topology
	// Routes are the static routes (see BuildRoutes).
	Routes *RouteTable
	// Pattern generates packet destinations.
	Pattern traffic.Pattern
	// InjectionRate is the offered load in flits/cycle/terminal (the x
	// axis of Fig. 8b).
	InjectionRate float64
	// SourceShare optionally skews per-terminal injection (trace-driven
	// runs); nil means uniform. Values are normalized internally.
	SourceShare []float64
	// ActiveTerminals restricts injection to the listed terminals (the
	// mapped cores); nil means all terminals inject.
	ActiveTerminals []int
	// PacketFlits is the packet length (default 4).
	PacketFlits int
	// BufDepthFlits is the input buffer capacity (default 4).
	BufDepthFlits int
	// ChannelDelay and RouterDelay are per-hop pipeline cycles (defaults
	// 1 and 1: two cycles per hop, ×pipes-like).
	ChannelDelay, RouterDelay int
	// WarmupCycles, MeasureCycles and DrainCycles structure the run
	// (defaults 1000, 4000, 4000).
	WarmupCycles, MeasureCycles, DrainCycles int
	// Seed makes runs reproducible.
	Seed int64
	// NewRNG, when non-nil, replaces the default randomness source
	// (math/rand seeded with Seed+1). Every run constructs its own
	// generator through the factory, so concurrent sweep rates never
	// share one and results stay byte-identical at every parallelism.
	NewRNG func(seed int64) RNG

	// FaultCycle, when > 0, injects a failure at that absolute cycle:
	// the FaultLinks stop transmitting (flits already on the wire still
	// arrive), so packets routed across them stall and hold their
	// wormhole resources — the degraded-throughput experiment of the
	// fault subsystem. Stats then split delivered throughput at the
	// fault cycle (PreFaultFPC / PostFaultFPC).
	FaultCycle int
	// FaultLinks lists the link IDs that go down at FaultCycle.
	FaultLinks []int
	// FaultRoutes, when non-nil, replaces Routes for packets injected at
	// or after FaultCycle — degraded-mode rerouting around the failure.
	// Nil keeps the original routes (packets aimed at down links stall).
	FaultRoutes *RouteTable
}

// rng constructs the run's randomness source.
func (c Config) rng() RNG {
	if c.NewRNG != nil {
		return c.NewRNG(c.Seed + 1)
	}
	return rand.New(rand.NewSource(c.Seed + 1))
}

// Default run structure when the corresponding Config fields are unset.
// Exported so callers deriving cycle positions (e.g. the fault sweep's
// default injection point, midway through the measurement window) stay
// in sync with withDefaults.
const (
	DefaultWarmupCycles  = 1000
	DefaultMeasureCycles = 4000
	DefaultDrainCycles   = 4000
)

func (c Config) withDefaults() Config {
	if c.PacketFlits <= 0 {
		c.PacketFlits = 4
	}
	if c.BufDepthFlits <= 0 {
		c.BufDepthFlits = 4
	}
	if c.ChannelDelay <= 0 {
		c.ChannelDelay = 1
	}
	if c.RouterDelay < 0 {
		c.RouterDelay = 0
	} else if c.RouterDelay == 0 {
		c.RouterDelay = 1
	}
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = DefaultWarmupCycles
	}
	if c.MeasureCycles <= 0 {
		c.MeasureCycles = DefaultMeasureCycles
	}
	if c.DrainCycles <= 0 {
		c.DrainCycles = DefaultDrainCycles
	}
	return c
}

// Stats is the outcome of a run.
type Stats struct {
	// AvgLatencyCycles is the mean packet latency (injection of the head
	// flit into the source queue to ejection of the tail) over packets
	// created in the measurement window and delivered by the end of the
	// drain.
	AvgLatencyCycles float64
	// P95LatencyCycles is the 95th-percentile latency of the same set.
	P95LatencyCycles float64
	// MeasuredPackets counts delivered measured packets.
	MeasuredPackets int
	// UnfinishedPackets counts measured packets still in flight after the
	// drain: a large value flags saturation.
	UnfinishedPackets int
	// ThroughputFPC is delivered flits per cycle per terminal during the
	// measurement window.
	ThroughputFPC float64
	// PreFaultFPC and PostFaultFPC split ThroughputFPC at
	// Config.FaultCycle: delivered flits per cycle per terminal over the
	// measurement cycles before and from the fault. Both are zero when no
	// fault is configured (or when the fault cycle leaves a window
	// empty).
	PreFaultFPC, PostFaultFPC float64
	// Saturated is set when more than 10% of measured packets failed to
	// drain (latency numbers then underestimate the true mean).
	Saturated bool
	// Cycles is the total simulated cycle count.
	Cycles int
}

// packet is one in-flight message. A run recycles packets through a
// free list once their tail flit ejects: wormhole order guarantees every
// earlier flit of the packet has ejected by then, so nothing still
// references it.
type packet struct {
	dst       int
	links     []int
	createdAt int
	measured  bool
}

// flit is the unit of flow control.
type flit struct {
	pkt  *packet
	seq  int // 0 = head, PacketFlits-1 = tail
	hop  int // links already traversed
	tail bool
}

// fifo is a bounded flit queue: a ring over its fixed window q of the
// run's flit slab, holding n flits from index start on. Callers never
// push onto a full ring (credits and the injection full check bound
// every buffer's occupancy).
type fifo struct {
	q        []flit
	start, n int
}

func (f *fifo) full() bool  { return f.n == len(f.q) }
func (f *fifo) empty() bool { return f.n == 0 }
func (f *fifo) head() *flit { return &f.q[f.start] }
func (f *fifo) push(x flit) {
	i := f.start + f.n
	if i >= len(f.q) {
		i -= len(f.q)
	}
	f.q[i] = x
	f.n++
}
func (f *fifo) pop() flit {
	x := f.q[f.start]
	f.q[f.start] = flit{}
	if f.start++; f.start == len(f.q) {
		f.start = 0
	}
	f.n--
	return x
}

// srcQueue is a terminal's unbounded source queue, held per packet: the
// flits of pkts[head] are fed one per cycle, seq being the next one.
type srcQueue struct {
	pkts      []*packet
	head, seq int
}

// inTransit is a flit travelling on a channel.
type inTransit struct {
	fl      flit
	arrive  int
	destBuf int
}

// ctxCheckCycles is how often (in simulated cycles) RunContext polls the
// context; coarse enough to be free, fine enough to abort within
// microseconds of wall time.
const ctxCheckCycles = 1024

// RunContext simulates the configured network and returns its
// statistics. The cycle loop polls ctx every ctxCheckCycles cycles and
// aborts with the context's error.
func RunContext(ctx context.Context, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.Routes == nil {
		return nil, fmt.Errorf("sim: nil route table")
	}
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("sim: nil traffic pattern")
	}
	if cfg.InjectionRate <= 0 || cfg.InjectionRate > 1 {
		return nil, fmt.Errorf("sim: injection rate %g outside (0, 1]", cfg.InjectionRate)
	}
	topo := cfg.Topo
	nTerm := topo.NumTerminals()
	links := topo.Links()
	for _, li := range cfg.FaultLinks {
		if li < 0 || li >= len(links) {
			return nil, fmt.Errorf("sim: fault link %d outside the %d links of %s", li, len(links), topo.Name())
		}
	}

	active := cfg.ActiveTerminals
	if active == nil {
		active = make([]int, nTerm)
		for i := range active {
			active[i] = i
		}
	}
	share := make([]float64, nTerm)
	if cfg.SourceShare == nil {
		for _, t := range active {
			share[t] = 1
		}
	} else {
		if len(cfg.SourceShare) > nTerm {
			return nil, fmt.Errorf("sim: %d source shares for %d terminals", len(cfg.SourceShare), nTerm)
		}
		var sum float64
		for _, t := range active {
			if t < len(cfg.SourceShare) {
				sum += cfg.SourceShare[t]
			}
		}
		if sum <= 0 {
			return nil, fmt.Errorf("sim: source shares sum to zero over active terminals")
		}
		for _, t := range active {
			if t < len(cfg.SourceShare) {
				share[t] = cfg.SourceShare[t] / sum * float64(len(active))
			}
		}
	}

	// Buffer layout: one input buffer per link (at its To router) and one
	// injection buffer per terminal (at its inject router), each a ring
	// over its own window of one flit slab.
	numBufs := len(links) + nTerm
	depth := cfg.BufDepthFlits
	slab := make([]flit, numBufs*depth)
	bufs := make([]fifo, numBufs)
	for i := range bufs {
		bufs[i].q = slab[i*depth : (i+1)*depth : (i+1)*depth]
	}
	linkBuf := func(linkID int) int { return linkID }
	injBuf := func(term int) int { return len(links) + term }

	// Router input ports: buffers feeding each router. bufRouter maps a
	// buffer back to its router, and occ[r] counts router r's non-empty
	// input buffers: a router with occ 0 can neither eject nor forward,
	// so the ejection and switch loops skip it. occ changes only where a
	// buffer turns empty or non-empty (delivery and injection pushes,
	// ejection and switch pops).
	inputsOf := make([][]int, topo.NumRouters())
	bufRouter := make([]int, numBufs)
	for _, l := range links {
		inputsOf[l.To] = append(inputsOf[l.To], linkBuf(l.ID))
		bufRouter[linkBuf(l.ID)] = l.To
	}
	for t := 0; t < nTerm; t++ {
		inputsOf[topo.InjectRouter(t)] = append(inputsOf[topo.InjectRouter(t)], injBuf(t))
		bufRouter[injBuf(t)] = topo.InjectRouter(t)
	}
	occ := make([]int, topo.NumRouters())

	// Output state per link: wormhole owner (buffer index or -1), credits
	// (free downstream slots) and round-robin pointer. owned is the
	// inverse of owner: the link each buffer owns, or -1. A buffer's head
	// packet walks one path, so it owns at most one link.
	owner := make([]int, len(links))
	credits := make([]int, len(links))
	rr := make([]int, topo.NumRouters())
	for i := range owner {
		owner[i] = -1
		credits[i] = cfg.BufDepthFlits
	}
	owned := make([]int, numBufs)
	for i := range owned {
		owned[i] = -1
	}
	// Ejection: one port per terminal, one flit per cycle, wormhole owner.
	ejOwner := make([]int, nTerm)
	for i := range ejOwner {
		ejOwner[i] = -1
	}

	rng := cfg.rng()
	srcQueues := make([]srcQueue, nTerm)
	var freePkts []*packet // packets whose tail has ejected, for reuse
	var transit []inTransit
	var latencies []float64
	var measuredCreated, measuredDone int
	var measuredFlits int
	var preFlits, postFlits int
	perHop := cfg.ChannelDelay + cfg.RouterDelay

	// Failure state: down links accept no new traversals from FaultCycle
	// on (flits already in transit still arrive).
	down := make([]bool, len(links))
	faultAt := func(cycle int) bool { return cfg.FaultCycle > 0 && cycle >= cfg.FaultCycle }

	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	inFlight := 0

	for cycle := 0; cycle < total; cycle++ {
		if cycle%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if cfg.FaultCycle > 0 && cycle == cfg.FaultCycle {
			for _, li := range cfg.FaultLinks {
				down[li] = true
			}
		}
		// 1. Deliver channel arrivals.
		keep := transit[:0]
		for _, tr := range transit {
			if tr.arrive <= cycle {
				if bufs[tr.destBuf].empty() {
					occ[bufRouter[tr.destBuf]]++
				}
				bufs[tr.destBuf].push(tr.fl)
			} else {
				keep = append(keep, tr)
			}
		}
		transit = keep

		// 2. Ejection: flits whose packets have traversed all their links
		// leave through their terminal's ejection port (1 flit/cycle),
		// held by the owning packet until the tail passes.
		for _, term := range active {
			r := topo.EjectRouter(term)
			if occ[r] == 0 {
				continue
			}
			chosen := -1
			ins := inputsOf[r]
			n := len(ins)
			for k := 0; k < n; k++ {
				j := rr[r] + k
				if j >= n {
					j -= n
				}
				bi := ins[j]
				if bufs[bi].empty() {
					continue
				}
				h := bufs[bi].head()
				if h.hop != len(h.pkt.links) || h.pkt.dst != term {
					continue
				}
				if ejOwner[term] != -1 && ejOwner[term] != bi {
					continue
				}
				chosen = bi
				break
			}
			if chosen == -1 {
				continue
			}
			fl := bufs[chosen].pop()
			if bufs[chosen].empty() {
				occ[r]--
			}
			returnCredit(chosen, len(links), credits)
			ejOwner[term] = chosen
			if fl.tail {
				ejOwner[term] = -1
				inFlight--
				if fl.pkt.measured {
					measuredDone++
					latencies = append(latencies, float64(cycle-fl.pkt.createdAt))
				}
				freePkts = append(freePkts, fl.pkt)
				if cycle >= cfg.WarmupCycles && cycle < cfg.WarmupCycles+cfg.MeasureCycles {
					measuredFlits += cfg.PacketFlits
					if cfg.FaultCycle > 0 {
						if faultAt(cycle) {
							postFlits += cfg.PacketFlits
						} else {
							preFlits += cfg.PacketFlits
						}
					}
				}
			}
		}

		// 3. Switch allocation and traversal, per output link. Down links
		// transmit nothing; packets wanting them stall where they are,
		// holding their buffers and wormhole claims (head-of-line
		// blocking under failure is the effect being measured). Links
		// are visited in ID order, not grouped by router: returnCredit
		// can raise the credits of a link visited later in the same
		// cycle, so the visiting order is part of the result.
		for li := range links {
			if down[li] || credits[li] <= 0 {
				continue
			}
			r := links[li].From
			if occ[r] == 0 {
				continue
			}
			ins := inputsOf[r]
			n := len(ins)
			chosen := -1
			if owner[li] != -1 {
				bi := owner[li]
				if !bufs[bi].empty() {
					h := bufs[bi].head()
					if wantsLink(h, li) {
						chosen = bi
					}
				}
			} else {
				for k := 0; k < n; k++ {
					j := rr[r] + k
					if j >= n {
						j -= n
					}
					bi := ins[j]
					if bufs[bi].empty() {
						continue
					}
					h := bufs[bi].head()
					if h.seq != 0 { // only head flits acquire new ports
						continue
					}
					// A buffer owning another link cannot claim this one.
					if wantsLink(h, li) && (owned[bi] == -1 || owned[bi] == li) {
						chosen = bi
						rr[r] = (rr[r] + k + 1) % n
						break
					}
				}
			}
			if chosen == -1 {
				continue
			}
			fl := bufs[chosen].pop()
			if bufs[chosen].empty() {
				occ[r]--
			}
			returnCredit(chosen, len(links), credits)
			fl.hop++
			credits[li]--
			owner[li], owned[chosen] = chosen, li
			if fl.tail {
				owner[li], owned[chosen] = -1, -1
			}
			transit = append(transit, inTransit{fl: fl, arrive: cycle + perHop, destBuf: linkBuf(li)})
		}

		// 4. Injection: generate packets and feed injection buffers.
		genRate := cfg.InjectionRate / float64(cfg.PacketFlits)
		for _, term := range active {
			q := &srcQueues[term]
			if cycle < cfg.WarmupCycles+cfg.MeasureCycles && rng.Float64() < genRate*share[term] {
				dst := cfg.Pattern.Dest(term, nTerm, rng)
				if dst == term {
					continue
				}
				routes := cfg.Routes
				if cfg.FaultRoutes != nil && faultAt(cycle) {
					routes = cfg.FaultRoutes // degraded-mode rerouting
				}
				paths := routes.Paths(term, dst)
				if len(paths) == 0 {
					return nil, fmt.Errorf("sim: no route %d->%d", term, dst)
				}
				p := pickPath(paths, rng)
				var pk *packet
				if n := len(freePkts); n > 0 {
					pk, freePkts = freePkts[n-1], freePkts[:n-1]
				} else {
					pk = new(packet)
				}
				*pk = packet{
					dst:       dst,
					links:     p.LinkIDs,
					createdAt: cycle,
					measured:  cycle >= cfg.WarmupCycles,
				}
				if pk.measured {
					measuredCreated++
				}
				inFlight++
				q.pkts = append(q.pkts, pk)
			}
			// One flit per cycle from the source queue into the inject
			// buffer.
			if q.head < len(q.pkts) && !bufs[injBuf(term)].full() {
				tail := q.seq == cfg.PacketFlits-1
				if bufs[injBuf(term)].empty() {
					occ[bufRouter[injBuf(term)]]++
				}
				bufs[injBuf(term)].push(flit{pkt: q.pkts[q.head], seq: q.seq, tail: tail})
				q.seq++
				if tail {
					q.head, q.seq = q.head+1, 0
					if q.head == len(q.pkts) {
						q.pkts, q.head = q.pkts[:0], 0
					}
				}
			}
		}

		// Early exit once drained.
		if cycle >= cfg.WarmupCycles+cfg.MeasureCycles && inFlight == 0 {
			total = cycle + 1
			break
		}
	}

	st := &Stats{
		MeasuredPackets:   measuredDone,
		UnfinishedPackets: measuredCreated - measuredDone,
		Cycles:            total,
	}
	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		st.AvgLatencyCycles = sum / float64(len(latencies))
		st.P95LatencyCycles = percentile(latencies, 0.95)
	}
	if cfg.MeasureCycles > 0 && len(active) > 0 {
		st.ThroughputFPC = float64(measuredFlits) / float64(cfg.MeasureCycles) / float64(len(active))
		if cfg.FaultCycle > 0 {
			// Split the measurement window at the fault cycle; a fault
			// outside the window leaves one side empty (and zero).
			pre := cfg.FaultCycle - cfg.WarmupCycles
			if pre < 0 {
				pre = 0
			}
			if pre > cfg.MeasureCycles {
				pre = cfg.MeasureCycles
			}
			if post := cfg.MeasureCycles - pre; post > 0 {
				st.PostFaultFPC = float64(postFlits) / float64(post) / float64(len(active))
			}
			if pre > 0 {
				st.PreFaultFPC = float64(preFlits) / float64(pre) / float64(len(active))
			}
		}
	}
	if measuredCreated > 0 && float64(st.UnfinishedPackets) > 0.1*float64(measuredCreated) {
		st.Saturated = true
	}
	return st, nil
}

// wantsLink reports whether the flit's next traversal is link li.
func wantsLink(h *flit, li int) bool {
	return h.hop < len(h.pkt.links) && h.pkt.links[h.hop] == li
}

// returnCredit frees a slot: link buffers return a credit to their link;
// injection buffers have no upstream credits.
func returnCredit(bufIdx, numLinks int, credits []int) {
	if bufIdx < numLinks {
		credits[bufIdx]++
	}
}

func pickPath(paths []Path, rng RNG) Path {
	if len(paths) == 1 {
		return paths[0]
	}
	var total float64
	for _, p := range paths {
		total += p.Weight
	}
	x := rng.Float64() * total
	for _, p := range paths {
		x -= p.Weight
		if x <= 0 {
			return p
		}
	}
	return paths[len(paths)-1]
}

// percentile returns the p-quantile of xs, taking the lower of the two
// nearest ranks. It sorts xs in place: the set has one entry per
// measured packet, unbounded in MeasureCycles.
func percentile(xs []float64, p float64) float64 {
	slices.Sort(xs)
	return xs[int(p*float64(len(xs)-1))]
}
