package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sunmap/internal/graph"
	"sunmap/internal/pool"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// BuildRoutes precomputes static routes for every ordered terminal pair:
// dimension-ordered single paths on direct topologies (the deterministic
// routing of ×pipes-style switches), the unique path on butterflies, and
// the full middle-stage spread on Clos networks (weight 1/m each) — the
// path diversity that wins Fig. 8(b) for the Clos. Every routed pair
// reuses one route.Router and one route.Result, so the table costs its
// own paths and little else.
func BuildRoutes(topo topology.Topology) (*RouteTable, error) {
	n := topo.NumTerminals()
	rt := &RouteTable{n: n, paths: make([][]Path, n*n)}
	cl, isClos := topo.(topology.ClosLike)
	router := route.NewRouter()
	var res route.Result
	assign := make([]int, 2)
	comms := []graph.Commodity{{ID: 0, Src: 0, Dst: 1, ValueMBps: 1}}
	opts := route.Options{Function: route.DimensionOrdered}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if isClos {
				m, _, r := cl.Params()
				for mid := 0; mid < m; mid++ {
					l1, err := findLink(topo, topo.InjectRouter(s), r+mid)
					if err != nil {
						return nil, err
					}
					l2, err := findLink(topo, r+mid, topo.EjectRouter(d))
					if err != nil {
						return nil, err
					}
					rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
						LinkIDs: []int{l1, l2},
						Weight:  1 / float64(m),
					})
				}
				continue
			}
			assign[0], assign[1] = s, d
			if err := router.RouteInto(&res, topo, assign, comms, opts); err != nil {
				return nil, fmt.Errorf("sim: building route %d->%d on %s: %w", s, d, topo.Name(), err)
			}
			for _, p := range res.Paths {
				rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
					// Copied: res reuses its path buffers on the next pair.
					LinkIDs: append([]int(nil), p.LinkIDs...),
					Weight:  p.Fraction,
				})
			}
		}
	}
	return rt, nil
}

// BuildRoutesFromResult converts an optimized mapping's flow paths into a
// simulator route table: each commodity's split fractions become weighted
// path choices between the mapped terminals. Used for trace-driven runs
// (the DSP study simulates the SUNMAP-produced mapping).
func BuildRoutesFromResult(topo topology.Topology, assign []int, res *route.Result) (*RouteTable, error) {
	n := topo.NumTerminals()
	rt := &RouteTable{n: n, paths: make([][]Path, n*n)}
	for _, p := range res.Paths {
		if p.Commodity.Src >= len(assign) || p.Commodity.Dst >= len(assign) {
			return nil, fmt.Errorf("sim: flow path endpoints outside assignment")
		}
		s, d := assign[p.Commodity.Src], assign[p.Commodity.Dst]
		rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
			LinkIDs: append([]int(nil), p.LinkIDs...),
			Weight:  p.Fraction,
		})
	}
	return rt, nil
}

// findLink locates the link ID from router u to router v.
func findLink(topo topology.Topology, u, v int) (int, error) {
	for _, a := range topo.Graph().Out(u) {
		if a.To == v {
			return a.ID, nil
		}
	}
	return 0, fmt.Errorf("sim: no link %d->%d in %s", u, v, topo.Name())
}

// SweepLimited runs the simulator across injection rates and returns the
// stats per rate — one curve of Fig. 8(b) — with cancellation and a
// bounded worker pool sharing a session-wide admission semaphore with the
// rest of the engine. parallelism <= 0 selects GOMAXPROCS. Work
// distribution follows the two-level limiter discipline (the shape
// fault.Sweeper established): the calling goroutine simulates rates
// inline under whatever limiter slot its caller already holds, and up to
// parallelism-1 extra workers are opportunistic — each polls limit with
// pool.PollAcquire, borrowing idle budget when available and giving up
// once the rates run out, so a fully subscribed limiter can never
// deadlock on nested acquisition. Rates are claimed off an atomic
// counter; each run is an independent seeded simulation, so results are
// identical at every worker count and stay in rate order. A nil limit
// admits helpers freely. The first per-rate failure cancels the remaining
// simulations, matching the sequential sweep's abort-at-first-error
// behavior; panics in a simulation become that rate's error instead of
// crashing the worker goroutine's process.
func SweepLimited(parent context.Context, cfg Config, rates []float64, parallelism int, limit *pool.Limiter) ([]*Stats, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(rates) {
		parallelism = len(rates)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	out := make([]*Stats, len(rates))
	errs := make([]error, len(rates))
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(rates) || ctx.Err() != nil {
				return
			}
			c := cfg
			c.InjectionRate = rates[i]
			st, err := func() (st *Stats, err error) {
				defer func() {
					if r := recover(); r != nil {
						st, err = nil, fmt.Errorf("panic at rate %g: %v", rates[i], r)
					}
				}()
				return RunContext(ctx, c)
			}()
			if err != nil {
				// A cancellation-induced abort isn't this rate's fault; the
				// genuine failure (or the parent's error) is reported by
				// whoever triggered it.
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					errs[i] = fmt.Errorf("sim: sweep at rate %g: %w", rates[i], err)
				}
				cancel()
				return
			}
			out[i] = st
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !pool.PollAcquire(ctx, limit, func() bool { return next.Load() >= int64(len(rates)) }) {
				return
			}
			defer limit.Release()
			run()
		}()
	}
	run()
	wg.Wait()
	if err := parent.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
