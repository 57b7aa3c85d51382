// Package search discovers application-specific NoC topologies by
// seeded, deterministic simulated annealing over arbitrary digraph edge
// sets — the step past SUNMAP's fixed library (Murali & De Micheli, DAC
// 2004) that NetSmith-style machine search takes: instead of picking the
// best of a handful of hand-designed families, anneal the edge set
// itself under radix, connectivity and deadlock-freedom constraints.
//
// The search runs Restarts independent annealing chains, each seeded
// from a different synthesized starting point (KL clustering, trimmed
// mesh, sparse Hamming, path/ring fallbacks) and decorrelated by a
// splitmix of (Seed, chain index). A chain's inner loop is
// allocation-free: mutate the candidate edge set in place (edge
// add/remove/swap, node split/merge), reject candidates violating the
// hard constraints, route all commodities with congestion-aware
// minimum-path search, reject cyclic channel-dependency graphs, and
// accept by the Metropolis rule under a geometric cooling schedule.
// Chain winners are materialized through topology.NewCustom, fully
// mapped (placement, floorplan, power), optionally scored for their
// survivability, and folded sequentially into one best design.
//
// Determinism contract: for a fixed (Seed, Budget, Restarts) the result
// is byte-identical at every parallelism, because chains are independent
// units with fixed per-chain budgets and seeds, results are
// index-addressed, and the final fold is a sequential reduction with
// total tie-breaks. Cancellation returns the partial best found so far
// alongside the context's error.
package search

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/rank"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// Sentinel errors, matched with errors.Is by the session layer to
// classify failures onto the wire schema.
var (
	// ErrBadOptions reports invalid search options or an application the
	// search cannot operate on.
	ErrBadOptions = errors.New("invalid search options")
	// ErrNoFeasible reports a run whose budget expired without any chain
	// producing a feasible, fully evaluated topology.
	ErrNoFeasible = errors.New("no feasible topology within budget")
)

// Options tunes one search run. The zero value of every field selects a
// sensible default.
type Options struct {
	// Budget is the total number of candidate evaluations across all
	// chains (default 20000). Every mutate→evaluate→accept iteration
	// charges one evaluation, so the budget fixes the iteration count
	// exactly — part of the determinism contract.
	Budget int
	// Restarts is the number of independent annealing chains (default 4).
	Restarts int
	// Seed drives all randomness. The same seed always explores the same
	// candidate sequence.
	Seed int64
	// MaxRadix caps the undirected inter-router links per switch
	// (default 4; must be >= 2).
	MaxRadix int
	// MaxCoresPerSwitch caps the terminals attached to one switch
	// (default 4; must be >= 1).
	MaxCoresPerSwitch int
	// MaxSwitches caps the router count (default: the core count).
	MaxSwitches int
	// Mapping configures the full evaluation of chain winners and the
	// link capacity/objective the fitness function mirrors.
	Mapping mapping.Options
	// Survive, when non-nil, scores a chain winner's survivability in
	// [0, 1] under the Mapping routing function, and the final fold ranks
	// feasible winners by rank.ReliabilityScore. It runs in the chain's
	// unit context, so a Survive that fans out under Limit nests in the
	// chain's slot.
	Survive func(ctx context.Context, res *mapping.Result, fn route.Function) (float64, error)
	// ReliabilityWeight is the w of the composite reliability score
	// (non-positive selects 1); only consulted when Survive is set.
	ReliabilityWeight float64
	// Parallelism bounds the chain fan-out (0 selects GOMAXPROCS).
	Parallelism int
	// Limit, when non-nil, is the session's shared admission semaphore:
	// each chain worker holds one slot; nested fault-sweep workers only
	// borrow idle slots (see engine.Fan).
	Limit *engine.Limiter
	// CheckpointEvery, when > 0 together with Checkpoint, emits a
	// ChainCheckpoint every CheckpointEvery evaluations of each chain (at
	// step boundaries); the caller decides which emissions to make
	// durable. The callback runs on chain goroutines and may be invoked
	// concurrently; implementations must be safe for concurrent use and
	// should return quickly (hand the checkpoint off, don't write or
	// fsync on the chain).
	CheckpointEvery int
	Checkpoint      func(ChainCheckpoint)
	// Resume seeds chains from previously captured checkpoints, matched
	// by chain index; chains without a matching entry start fresh. A
	// resumed run must use the same Seed, Budget, Restarts, bounds and
	// application as the run that captured the checkpoints — the
	// determinism contract (resume(seed, step N) == uninterrupted run)
	// only holds when the remaining schedule is identical.
	Resume []ChainCheckpoint
}

func (o Options) withDefaults(terms int) (Options, bounds, error) {
	if o.Budget <= 0 {
		o.Budget = 20000
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	if o.MaxRadix == 0 {
		o.MaxRadix = 4
	}
	if o.MaxRadix < 2 {
		return o, bounds{}, fmt.Errorf("search: %w: MaxRadix %d (want 0 for the default, or >= 2)", ErrBadOptions, o.MaxRadix)
	}
	if o.MaxCoresPerSwitch == 0 {
		o.MaxCoresPerSwitch = 4
	}
	if o.MaxCoresPerSwitch < 1 {
		return o, bounds{}, fmt.Errorf("search: %w: MaxCoresPerSwitch %d (want 0 for the default, or >= 1)", ErrBadOptions, o.MaxCoresPerSwitch)
	}
	if o.MaxSwitches == 0 {
		o.MaxSwitches = terms
	}
	b := bounds{maxRadix: o.MaxRadix, maxCores: o.MaxCoresPerSwitch, maxR: o.MaxSwitches}
	b.minR = (terms + b.maxCores - 1) / b.maxCores
	if b.minR < 2 {
		b.minR = 2
	}
	if b.maxR < b.minR {
		return o, bounds{}, fmt.Errorf("search: %w: MaxSwitches %d cannot host %d cores at %d per switch (need >= %d)",
			ErrBadOptions, b.maxR, terms, b.maxCores, b.minR)
	}
	return o, b, nil
}

// Candidate is one evaluated design point of the search.
type Candidate struct {
	// Routers, BiLinks and Terminals are the structure: undirected
	// router pairs (sorted, endpoints ascending) and the terminal→router
	// attachment.
	Routers   int
	BiLinks   [][2]int
	Terminals []int
	// Fitness is the inner-loop score (lower is better): bandwidth-
	// weighted average hops, overload penalty, structural terms.
	Fitness float64
	// Evaluated is the full mapping of the materialized topology —
	// placement, floorplan, area, power, cost. Nil when the run was
	// canceled before this candidate reached full evaluation.
	Evaluated *mapping.Result
	// Survivability is the Options.Survive score when Survive was set.
	Survivability    float64
	HasSurvivability bool
}

// Result is one completed (or canceled) search run.
type Result struct {
	// Best is the winning candidate of the sequential fold.
	Best Candidate
	// Evaluations counts candidate evaluations actually performed;
	// Accepted counts Metropolis acceptances.
	Evaluations int
	Accepted    int
	// Chains is the number of annealing chains; Seed and Budget echo the
	// resolved options.
	Chains int
	Seed   int64
	Budget int
}

// chainResult is one chain's contribution, index-addressed for
// determinism.
type chainResult struct {
	chain           int
	init, best      Candidate
	evals, accepted int
	// routed and memoHits split the chain's structurally valid
	// evaluations into routed candidates and memo answers.
	routed, memoHits int
	err              error
}

// Run executes the search. On context cancellation it returns the
// partial best found so far together with the context's error; the
// partial best may lack a full evaluation (Best.Evaluated == nil).
func Run(ctx context.Context, app *graph.CoreGraph, opts Options) (*Result, error) {
	if app == nil {
		return nil, fmt.Errorf("search: %w: nil application", ErrBadOptions)
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("search: %w: %w", ErrBadOptions, err)
	}
	terms := app.NumCores()
	if terms < 2 {
		return nil, fmt.Errorf("search: %w: need at least 2 cores, got %d", ErrBadOptions, terms)
	}
	if app.NumEdges() == 0 {
		return nil, fmt.Errorf("search: %w: application %q has no flows", ErrBadOptions, app.Name())
	}
	o, b, err := opts.withDefaults(terms)
	if err != nil {
		return nil, err
	}

	comms := app.Commodities()
	inits := initialCandidates(app, terms, b)
	chains := o.Restarts
	per, rem := o.Budget/chains, o.Budget%chains
	results := make([]*chainResult, chains)
	scratch := engine.NewFree(mapping.NewScratch)
	eo := engine.Options{Parallelism: o.Parallelism, Limit: o.Limit}
	fanErr := engine.Fan(ctx, chains, eo, func(ctx context.Context, i int) error {
		budget := per
		if i < rem {
			budget++
		}
		cr := runChain(ctx, comms, terms, o, b, i, budget, inits[i%len(inits)])
		if cr.err == nil && ctx.Err() == nil {
			finishChain(ctx, app, o, cr, scratch)
		}
		results[i] = cr
		return cr.err
	})
	res := fold(results, o, chains)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return res, ctxErr
	}
	if fanErr != nil {
		return nil, fanErr
	}
	if res.Best.Evaluated == nil {
		return nil, fmt.Errorf("search: %w %d", ErrNoFeasible, o.Budget)
	}
	return res, nil
}

// chainSeed decorrelates per-chain RNG streams from (seed, chain) by a
// splitmix64-style finalizer, so chains never share a random sequence
// even for adjacent seeds.
func chainSeed(seed int64, chain int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(chain+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// chain is one annealing restart's mutable state.
type chain struct {
	rng *rand.Rand
	// src is the counting source underneath rng: its draw count is the
	// serializable RNG position checkpoints capture.
	src             *countingSource
	ev              *evaluator
	cur, next, best *cand
	curFit, bestFit float64
	temp, cool      float64
	evals, accepted int
}

// step runs one mutate→evaluate→accept iteration. Every call charges one
// evaluation (a no-op mutation or a constraint rejection still consumed
// its slice of the budget); this is what makes iteration counts — and
// therefore results — a pure function of (seed, budget).
//
//sunmap:hotpath
func (ch *chain) step() {
	ch.evals++
	ch.temp *= ch.cool
	ch.next.copyFrom(ch.cur)
	if !ch.next.mutate(ch.rng, ch.ev.b) {
		return
	}
	fit, ok := ch.ev.eval(ch.next)
	if !ok {
		return
	}
	if d := fit - ch.curFit; d > 0 && ch.rng.Float64() >= math.Exp(-d/ch.temp) {
		return
	}
	ch.cur, ch.next = ch.next, ch.cur
	ch.curFit = fit
	ch.accepted++
	if fit < ch.bestFit {
		ch.best.copyFrom(ch.cur)
		ch.bestFit = fit
	}
}

func runChain(ctx context.Context, comms []graph.Commodity, terms int, o Options, b bounds, idx, budget int, init *cand) *chainResult {
	cr := &chainResult{chain: idx}
	src := newCountingSource(chainSeed(o.Seed, idx))
	ch := &chain{
		rng:  rand.New(src),
		src:  src,
		ev:   newEvaluator(comms, terms, b, o.Mapping),
		cur:  newCand(b.maxR, terms),
		next: newCand(b.maxR, terms),
		best: newCand(b.maxR, terms),
	}
	if cs := resumeFor(o.Resume, idx); cs != nil {
		if cs.Evals > budget {
			cr.err = fmt.Errorf("search: chain %d: checkpoint at %d evaluations exceeds the chain budget %d", idx, cs.Evals, budget)
			return cr
		}
		if err := ch.restore(*cs, terms, b); err != nil {
			cr.err = fmt.Errorf("search: chain %d: resuming: %w", idx, err)
			return cr
		}
		cr.init = Candidate{
			Routers:   cs.Init.Routers,
			BiLinks:   append([][2]int(nil), cs.Init.Edges...),
			Terminals: append([]int(nil), cs.Init.Terminals...),
			Fitness:   math.Float64frombits(cs.InitFitBits),
		}
	} else {
		ch.cur.copyFrom(init)
		fit, ok := ch.ev.eval(ch.cur)
		ch.evals++
		if !ok {
			// The synthesized seed violates a constraint under these bounds
			// (e.g. its routed CDG is cyclic); fall back to the path seed,
			// whose tree routes are deadlock-free by construction.
			ch.cur.copyFrom(pathInit(terms, b))
			fit, ok = ch.ev.eval(ch.cur)
			ch.evals++
			if !ok {
				cr.err = fmt.Errorf("search: chain %d: no valid starting candidate", idx)
				return cr
			}
		}
		ch.curFit, ch.bestFit = fit, fit
		ch.best.copyFrom(ch.cur)
		cr.init = snapshot(ch.cur, fit)
		// Geometric cooling from a quarter of the initial fitness down three
		// decades across the chain's budget.
		ch.temp = 0.25 * fit
		if ch.temp < 1e-6 {
			ch.temp = 1e-6
		}
		steps := budget - ch.evals
		ch.cool = 1.0
		if steps > 0 {
			ch.cool = math.Pow(1e-3, 1/float64(steps))
		}
	}
	for ch.evals < budget {
		if ch.evals%64 == 0 && ctx.Err() != nil {
			break
		}
		ch.step()
		if o.Checkpoint != nil && o.CheckpointEvery > 0 && ch.evals%o.CheckpointEvery == 0 {
			o.Checkpoint(ch.checkpoint(idx, cr.init))
		}
	}
	cr.best = snapshot(ch.best, ch.bestFit)
	cr.evals, cr.accepted = ch.evals, ch.accepted
	cr.routed, cr.memoHits = ch.ev.routed, ch.ev.hits
	return cr
}

// resumeFor finds the checkpoint matching a chain index, if any.
func resumeFor(rs []ChainCheckpoint, idx int) *ChainCheckpoint {
	for i := range rs {
		if rs[i].Chain == idx {
			return &rs[i]
		}
	}
	return nil
}

// snapshot captures a candidate's structure in canonical form (edges
// sorted lexicographically).
func snapshot(c *cand, fit float64) Candidate {
	edges := make([][2]int, len(c.edges))
	copy(edges, c.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return Candidate{
		Routers:   c.nR,
		BiLinks:   edges,
		Terminals: append([]int(nil), c.att...),
		Fitness:   fit,
	}
}

// finishChain materializes and fully maps the chain's starting point and
// fitness-best candidate, keeps the better of the two as the chain
// winner (so a chain can never regress below its seed — the search
// matches or beats the synthesized baselines by construction), and
// scores its survivability when Options.Survive is set.
func finishChain(ctx context.Context, app *graph.CoreGraph, o Options, cr *chainResult, scratch *engine.Free[mapping.Scratch]) {
	evalOne := func(c *Candidate) bool {
		topo, err := materialize(app, o.Seed, *c)
		if err != nil {
			cr.err = fmt.Errorf("search: chain %d: %w", cr.chain, err)
			return false
		}
		sc := scratch.Get()
		res, err := mapping.MapContextWith(ctx, app, topo, o.Mapping, sc)
		scratch.Put(sc)
		if err != nil {
			if ctx.Err() == nil {
				cr.err = fmt.Errorf("search: chain %d: mapping %s: %w", cr.chain, topo.Name(), err)
			}
			return false
		}
		c.Evaluated = res
		return true
	}
	if !evalOne(&cr.init) {
		return
	}
	if structEqual(cr.init, cr.best) {
		cr.best.Evaluated = cr.init.Evaluated
	} else if !evalOne(&cr.best) {
		return
	}
	if fullBetter(&cr.init, &cr.best) {
		cr.best = cr.init
	}
	if o.Survive == nil {
		return
	}
	surv, err := o.Survive(ctx, cr.best.Evaluated, o.Mapping.Routing)
	if err != nil {
		if ctx.Err() == nil {
			cr.err = fmt.Errorf("search: chain %d: %w", cr.chain, err)
		}
		return
	}
	cr.best.Survivability, cr.best.HasSurvivability = surv, true
}

func structEqual(a, b Candidate) bool {
	if a.Routers != b.Routers || len(a.BiLinks) != len(b.BiLinks) || len(a.Terminals) != len(b.Terminals) {
		return false
	}
	for i := range a.BiLinks {
		if a.BiLinks[i] != b.BiLinks[i] {
			return false
		}
	}
	for i := range a.Terminals {
		if a.Terminals[i] != b.Terminals[i] {
			return false
		}
	}
	return true
}

// fullBetter reports whether a's full evaluation strictly beats b's:
// feasibility first, then objective cost.
func fullBetter(a, b *Candidate) bool {
	ra, rb := a.Evaluated, b.Evaluated
	if ra == nil || rb == nil {
		return rb == nil && ra != nil
	}
	if ra.Feasible() != rb.Feasible() {
		return ra.Feasible()
	}
	return ra.Cost < rb.Cost-1e-12
}

// fold reduces the index-addressed chain results sequentially into the
// final Result. Ranking tiers: fully evaluated feasible candidates (by
// cost, or by the composite reliability score when a fault model ran),
// then fully evaluated infeasible ones (by cost), then fitness-only
// partials from canceled chains. Ties break toward fewer routers, fewer
// links, then the lower chain index — a total order, so the fold is
// parallelism-independent.
func fold(results []*chainResult, o Options, chains int) *Result {
	res := &Result{Chains: chains, Seed: o.Seed, Budget: o.Budget}
	bestCost := math.Inf(1)
	for _, cr := range results {
		if cr == nil || cr.err != nil {
			continue
		}
		if r := cr.best.Evaluated; r != nil && r.Feasible() && r.Cost < bestCost {
			bestCost = r.Cost
		}
	}
	tierOf := func(c *Candidate) (tier int, score float64) {
		switch {
		case c.Evaluated != nil && c.Evaluated.Feasible():
			if o.Survive != nil {
				return 0, rank.ReliabilityScore(c.Evaluated.Cost, bestCost, c.Survivability, o.ReliabilityWeight)
			}
			return 0, c.Evaluated.Cost
		case c.Evaluated != nil:
			return 1, c.Evaluated.Cost
		default:
			return 2, c.Fitness
		}
	}
	const tol = 1e-12
	winner, wTier, wScore := -1, 0, 0.0
	for i, cr := range results {
		if cr == nil || cr.err != nil {
			continue
		}
		res.Evaluations += cr.evals
		res.Accepted += cr.accepted
		tier, score := tierOf(&cr.best)
		take := winner == -1 ||
			tier < wTier ||
			(tier == wTier && score < wScore-tol)
		if !take && tier == wTier && score <= wScore+tol {
			b, w := &cr.best, &results[winner].best
			take = b.Routers < w.Routers ||
				(b.Routers == w.Routers && len(b.BiLinks) < len(w.BiLinks))
		}
		if take {
			winner, wTier, wScore = i, tier, score
		}
	}
	if winner >= 0 {
		res.Best = results[winner].best
	}
	return res
}

// materialize builds the durable topology.Topology of a candidate via
// topology.NewCustom, so discovered networks flow through Select, Pareto
// exploration and fault sweeps exactly like library or synthesized ones.
// The name embeds the app, the seed and a structural digest, making it
// stable across parallelism and unique per discovered structure.
func materialize(app *graph.CoreGraph, seed int64, c Candidate) (topology.Topology, error) {
	routerPos := make([][2]float64, c.Routers)
	for i := range routerPos {
		x, y := gridPos(i, c.Routers)
		routerPos[i] = [2]float64{x, y}
	}
	termPos := make([][2]float64, len(c.Terminals))
	nth := make([]int, c.Routers)
	for t, r := range c.Terminals {
		k := nth[r]
		nth[r]++
		termPos[t] = [2]float64{
			routerPos[r][0] + 0.5*float64(k%2) - 0.25,
			routerPos[r][1] + 0.5*float64(k/2) - 0.25,
		}
	}
	spec := topology.CustomSpec{
		Name:        fmt.Sprintf("search-%s-s%d-%08x", sanitizeName(app.Name()), seed, structDigest(c)),
		NumRouters:  c.Routers,
		BiLinks:     c.BiLinks,
		Terminals:   c.Terminals,
		RouterPos:   routerPos,
		TerminalPos: termPos,
	}
	return topology.NewCustom(spec)
}

func sanitizeName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "app"
	}
	return sb.String()
}

// structDigest hashes the canonical structure (router count, attachment,
// sorted edges) — identical structures get identical names regardless of
// which chain or parallelism level discovered them.
func structDigest(c Candidate) uint32 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(c.Routers)
	put(len(c.Terminals))
	for _, r := range c.Terminals {
		put(r)
	}
	for _, e := range c.BiLinks {
		put(e[0])
		put(e[1])
	}
	s := h.Sum64()
	return uint32(s ^ (s >> 32))
}

// initialCandidates builds the chain seed pool: the synthesized
// generators first (so chain 0 starts from — and its winner can only
// improve on — the strongest heuristic baseline), then the always-valid
// path and ring fallbacks. Chain i seeds from entry i mod len.
func initialCandidates(app *graph.CoreGraph, terms int, b bounds) []*cand {
	var inits []*cand
	addTopo := func(t topology.Topology, err error) {
		if err != nil {
			return
		}
		if c, ok := candFromTopology(t, terms, b); ok {
			inits = append(inits, c)
		}
	}
	addTopo(synth.Cluster(app, b.maxCores, b.maxRadix))
	addTopo(synth.TrimmedMesh(app))
	if b.maxCores >= 2 {
		addTopo(synth.Cluster(app, 2, b.maxRadix))
	}
	addTopo(synth.SparseHamming(app, b.maxRadix))
	inits = append(inits, pathInit(terms, b))
	inits = append(inits, ringInit(terms, b))
	return inits
}

// candFromTopology converts a synthesized topology into candidate form;
// ok is false when the topology does not fit the search bounds (radix,
// terminal caps, switch window) or is not a plain bidirectional network
// with coincident inject/eject routers.
func candFromTopology(t topology.Topology, terms int, b bounds) (*cand, bool) {
	if t.NumTerminals() != terms || t.NumRouters() < b.minR || t.NumRouters() > b.maxR {
		return nil, false
	}
	c := newCand(b.maxR, terms)
	c.nR = t.NumRouters()
	for i := 0; i < terms; i++ {
		r := t.InjectRouter(i)
		if t.EjectRouter(i) != r {
			return nil, false
		}
		c.att[i] = r
		c.tcnt[r]++
		if c.tcnt[r] > b.maxCores {
			return nil, false
		}
	}
	links := t.Links()
	for _, ch := range topology.Channels(t) {
		if len(ch) != 2 {
			return nil, false // unidirectional channel: not in this search space
		}
		l := links[ch[0]]
		if c.hasEdge(l.From, l.To) {
			return nil, false
		}
		if c.deg[l.From] >= b.maxRadix || c.deg[l.To] >= b.maxRadix {
			return nil, false
		}
		c.addEdge(l.From, l.To)
	}
	return c, true
}

// pathInit attaches terminals contiguously to a path of routers — a tree,
// so its minimum-path routes always have an acyclic channel-dependency
// graph. It is the guaranteed-valid fallback seed.
func pathInit(terms int, b bounds) *cand {
	n := b.minR
	c := newCand(b.maxR, terms)
	c.nR = n
	for t := 0; t < terms; t++ {
		r := t * n / terms
		c.att[t] = r
		c.tcnt[r]++
	}
	for i := 0; i+1 < n; i++ {
		c.addEdge(i, i+1)
	}
	return c
}

// ringInit is pathInit plus the closing link (when 3+ routers and radix
// headroom allow), a denser seed for diversity.
func ringInit(terms int, b bounds) *cand {
	c := pathInit(terms, b)
	if c.nR >= 3 && c.deg[0] < b.maxRadix && c.deg[c.nR-1] < b.maxRadix {
		c.addEdge(0, c.nR-1)
	}
	return c
}
