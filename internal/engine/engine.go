// Package engine is the concurrent evaluation engine underneath SUNMAP's
// selection and exploration flows. Phase 1 of the paper maps the
// application onto every topology in the library independently — an
// embarrassingly parallel sweep. The engine runs those evaluations on a
// bounded worker pool, memoizes them in a content-addressed cache so
// routing escalation and the Fig. 9 explorers never re-map an identical
// design point, streams per-candidate progress to interactive consumers,
// and threads context cancellation down into the mapping inner loops.
//
// Results are deterministic and independent of Parallelism: each job's
// outcome lands at its input index, so consumers observe exactly the
// sequential, library-ordered result list.
//
// The engine is also the one admission module: it owns the session
// Limiter, whose slot methods are unexported, so Evaluate's miss path and
// Fan's workers are the only code that takes its slots — Fan by one rule
// for top-level and nested fan-outs alike (see Fan).
package engine

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/topology"
)

// evalSeconds distributes mapping-evaluation wall time process-wide
// (cache hits excluded — they never reach the timed path).
var evalSeconds = obs.Default.Histogram("sunmap_evaluate_seconds", "wall time of one mapping evaluation", nil)

// Job is one evaluation request: map the application onto Topo under Opts.
type Job struct {
	Topo topology.Topology
	Opts mapping.Options
}

// Outcome is one evaluated job. Exactly one of Result and Err is set; Err
// records a hard mapping failure (e.g. too few terminals), mirroring
// core.Candidate.
type Outcome struct {
	Result *mapping.Result
	Err    error
}

// Event is one streaming progress notification, emitted after a job
// finishes (successfully, as a cache hit, or with a mapping error).
type Event struct {
	// Index is the job's position in the submitted job list; Total is the
	// list length. Events arrive in completion order, not index order.
	Index, Total int
	// Done counts finished jobs including this one.
	Done int
	// Topology names the evaluated topology.
	Topology string
	// Routing is the routing function the job ran under.
	Routing string
	// CacheHit marks an evaluation served from the shared cache.
	CacheHit bool
	// Err is the job's mapping error, if any.
	Err error
	// Elapsed is the wall time of this evaluation (≈0 for cache hits).
	Elapsed time.Duration
}

// Progress receives streaming Events. Callbacks are serialized by the
// engine (never concurrent) but run on worker goroutines; they must not
// block for long.
type Progress func(Event)

// ErrPanic marks an Outcome.Err produced by recovering a panic in an
// evaluation, distinguishing genuine internal faults from the ordinary
// structural mapping failures (bad client input) sharing the error slot.
var ErrPanic = errors.New("engine: evaluation panic")

// Options tunes one engine run.
type Options struct {
	// Parallelism bounds the worker pool. 0 (or negative) selects
	// GOMAXPROCS; 1 evaluates sequentially in submission order.
	Parallelism int
	// Cache, when non-nil, memoizes evaluations across runs.
	Cache *Cache
	// Progress, when non-nil, streams per-job completion events.
	Progress Progress
	// Limit, when non-nil, is a shared admission semaphore: each mapping
	// evaluation (cache hits excluded) and each Fan worker holds one slot
	// while it runs, so several concurrent engine calls — e.g. the
	// requests of one Session.Batch — share a single session-wide
	// parallelism budget instead of multiplying their pools.
	Limit *Limiter
	// Scratch, when non-nil, is the free list of mapping scratch sets
	// (routers, LP arenas, path buffers) the run's evaluations borrow
	// from. A Session passes one list to every engine run, so escalation
	// rungs and later requests reuse warm scratch; an evaluation takes a
	// set only while it holds a Limit slot, so a list used only under one
	// Limit never grows past its capacity. Nil gives the run a list of
	// its own.
	Scratch *Free[mapping.Scratch]
}

// workers resolves Parallelism (0 or negative selects GOMAXPROCS) to a
// worker count for jobs units of work, clamped to [1, jobs].
func (o Options) workers(jobs int) int {
	n := o.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, jobs))
}

// Sweep maps the application onto every topology in lib under one shared
// option set — SUNMAP Phase 1. Outcomes are returned in library order
// regardless of Parallelism.
func Sweep(ctx context.Context, app *graph.CoreGraph, lib []topology.Topology, opts mapping.Options, eo Options) ([]Outcome, error) {
	jobs := make([]Job, len(lib))
	for i, topo := range lib {
		jobs[i] = Job{Topo: topo, Opts: opts}
	}
	return Evaluate(ctx, app, jobs, eo)
}

// Evaluate runs an arbitrary job list (the generalization behind Sweep,
// the routing sweep and the Pareto explorer) as the units of one Fan on
// up to Parallelism workers. With a Cache, every job's key is built
// before the fan-out (see cacheKeys). A cache hit takes no Limit slot; a
// miss takes one with the blocking acquire for the length of its mapping.
// Outcomes are returned in job order regardless of Parallelism. The first
// context cancellation aborts the run and returns the context's error;
// per-job mapping failures do not abort and are recorded in the outcome,
// while a panic outside the mapping (in building the keys or in the
// progress callback) fails the run with an ErrPanic error. Elapsed on
// progress events is advisory wall time, deliberately outside the
// deterministic report surface; it is read through obs.Now, the audited
// clock source.
//
// Evaluate must not run inside a Fan unit under the same Limit: at
// parallelism 1 a miss's acquire would wait on the slot the calling unit
// already holds. Mapping work nested in a unit calls
// mapping.MapContextWith directly, as search's finishChain does.
func Evaluate(ctx context.Context, app *graph.CoreGraph, jobs []Job, eo Options) ([]Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	rec := obs.FromContext(ctx)
	var keys [][sha256.Size]byte
	if eo.Cache != nil {
		var err error
		if keys, err = cacheKeys(app, jobs); err != nil {
			return nil, err
		}
	}
	out := make([]Outcome, len(jobs))

	// Per-worker mapping scratch: each running evaluation borrows a
	// Scratch (routing solver + swap-loop buffers) for its duration, from
	// the caller's list or else a run-local one, so a library sweep reuses
	// at most one scratch set per worker instead of allocating routing
	// state per candidate mapping.
	scratch := eo.Scratch
	if scratch == nil {
		scratch = NewFree(mapping.NewScratch)
	}

	var progressMu sync.Mutex
	done := 0
	emit := func(ev Event) {
		if eo.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock() // a panicking callback must not wedge the other workers
		done++
		ev.Done = done
		eo.Progress(ev)
	}

	err := Fan(ctx, len(jobs), Options{Parallelism: eo.Parallelism}, func(_ context.Context, i int) error {
		j := jobs[i]
		ev := Event{
			Index:    i,
			Total:    len(jobs),
			Topology: j.Topo.Name(),
			Routing:  j.Opts.Routing.String(),
		}
		var key [sha256.Size]byte
		if eo.Cache != nil {
			key = keys[i]
			if e, ok := eo.Cache.get(key); ok {
				rec.CacheHit()
				out[i] = Outcome{Result: e.res, Err: e.err}
				ev.CacheHit = true
				ev.Err = e.err
				emit(ev)
				return nil
			}
			rec.CacheMiss()
		}
		if err := eo.Limit.acquire(ctx); err != nil {
			return nil // canceled while queued for a session slot
		}
		start := obs.Now() // after acquire: Elapsed is evaluation time, not queue wait
		res, err := func() (res *mapping.Result, err error) {
			defer eo.Limit.release()
			// A panic in an evaluation (e.g. on an adversarial input)
			// becomes this job's error outcome rather than the run's, so
			// one bad candidate never hides its neighbours' results.
			defer func() {
				if r := recover(); r != nil {
					res, err = nil, fmt.Errorf("%w evaluating %s: %v", ErrPanic, j.Topo.Name(), r)
				}
			}()
			sc := scratch.Get()
			defer scratch.Put(sc)
			return mapping.MapContextWith(ctx, app, j.Topo, j.Opts, sc)
		}()
		if ctx.Err() != nil {
			return nil // canceled mid-map: don't cache or report partial work
		}
		eo.Cache.put(key, entry{res: res, err: err})
		out[i] = Outcome{Result: res, Err: err}
		ev.Err = err
		ev.Elapsed = obs.Since(start)
		rec.Observe(obs.StageEvaluate, ev.Elapsed)
		evalSeconds.ObserveSeconds(int64(ev.Elapsed))
		emit(ev)
		// Yield after each mapping: Fan's workers never block between
		// units, so without a scheduling point here the GC's fractional
		// mark worker waits for sysmon's preemption, the mutator pays in
		// assists and a cold selection at parallelism 2 runs ~15% more
		// GC cycles.
		runtime.Gosched()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// slotKey is the context key under which Fan records the Limiter a
// unit's goroutine holds a slot of.
type slotKey struct{}

// Fan runs n independent, index-addressed units — the reliability
// sweeps of a selection, the scenarios of one fault sweep, the injection
// rates of a simulation, the search's annealing chains — on up to
// Parallelism workers inside the Limit budget. It is the one fan-out:
// Evaluate and Session.Batch run on it without a Limit, because their
// units take their own slots. With a Limit, its workers take slots by
// one rule read off ctx:
//
//   - No slot held (a top-level request): every worker takes its slot
//     with the blocking acquire, so the work queues, shows in Waiting and
//     is shed by the serve layer like any mapping evaluation.
//   - A slot of Limit already held (ctx is the unit context of an
//     enclosing Fan): the calling goroutine runs units inline in that
//     slot, and the extra workers borrow idle slots through pollAcquire,
//     giving up once the units run out — a fully subscribed limiter can
//     never deadlock on the nested fan-out.
//
// A worker keeps its slot until no unit is left to claim. fn receives
// the unit's context, which records the held slot for any Fan nested
// inside it. Units are claimed in index order and no unit starts after
// one has failed; every unit below a failing index was claimed before it
// and runs to the end, so the lowest-index error — the one a sequential
// run would hit — is returned whatever the worker count. A unit's panic
// becomes its error, wrapping ErrPanic. Cancellation wins over unit
// errors.
func Fan(ctx context.Context, n int, eo Options, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	limit := eo.Limit
	held := limit != nil && ctx.Value(slotKey{}) == limit
	uctx := ctx
	if limit != nil && !held {
		uctx = context.WithValue(ctx, slotKey{}, limit)
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = n
		first  error
	)
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := runUnit(uctx, i, fn); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	// Workers still waiting for a slot are retired once the units run
	// out, before the finishing worker's slot goes back, so none of them
	// takes a slot only to find no work; errRetired keeps that wait out
	// of the limiter's accounting.
	actx, stop := context.WithCancelCause(ctx)
	defer stop(errRetired)
	worker := func() {
		if held {
			if !limit.pollAcquire(actx, func() bool { return failed.Load() || next.Load() >= int64(n) }) {
				return
			}
		} else if limit.acquire(actx) != nil {
			return
		}
		defer limit.release()
		defer stop(errRetired)
		work()
	}
	var wg sync.WaitGroup
	for range eo.workers(n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	// The calling goroutine is the first worker; nested, it works in the
	// slot it already holds.
	if held {
		work()
		stop(errRetired)
	} else {
		worker()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}

// runUnit runs one Fan unit, turning its panic into an ErrPanic error:
// worker goroutines must not take the process down.
func runUnit(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w in unit %d: %v", ErrPanic, i, r)
		}
	}()
	return fn(ctx, i)
}
