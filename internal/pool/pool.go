// Package pool provides the session's admission semaphore (Limiter), a
// typed free list for per-worker scratch (Free), and the bounded
// worker-pool skeleton (ForEach) under engine.Evaluate and Session.Batch:
// fan N index-addressed jobs across a fixed number of goroutines, drain
// without working once the context is cancelled, and return only when
// every worker has exited. Callers own result collection (typically
// index-disjoint slice writes, which need no locking) and decide after
// the fact whether the run ended by completion or cancellation.
//
// Only internal/engine takes Limiter slots (Acquire, TryAcquire and
// engine.PollAcquire); the limiterdiscipline analyzer enforces it.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sunmap/internal/obs"
)

// Limiter acquisition outcomes feed the process-wide registry: the
// blocking/TryAcquire split is the signal that distinguishes "workers
// never asked for slots" from "workers asked and were starved" when a
// parallel run reports speedup ≈ 1.0. Children are resolved once here,
// with constant labels, so the hot paths below stay at one atomic add.
var (
	limiterAcquires  = obs.Default.CounterVec("sunmap_limiter_acquire_total", "blocking limiter acquisitions by outcome", "outcome")
	acquireImmediate = limiterAcquires.With("immediate")
	acquireBlocked   = limiterAcquires.With("blocked")
	acquireCancelled = limiterAcquires.With("cancelled")
	limiterTries     = obs.Default.CounterVec("sunmap_limiter_try_total", "opportunistic TryAcquire attempts by outcome", "outcome")
	tryHit           = limiterTries.With("hit")
	tryMiss          = limiterTries.With("miss")
	blockedWait      = obs.Default.Histogram("sunmap_limiter_blocked_wait_seconds", "time spent queued in blocking Acquire", nil)
)

// Limiter is a counting semaphore bounding how many evaluations run at
// once across any number of concurrent engine calls. A Session
// owns one Limiter for its lifetime, so a batch of requests fanned out
// concurrently still keeps the process-wide mapping work within the
// session's parallelism budget.
type Limiter struct {
	ch chan struct{}
	// waiting counts callers blocked in Acquire — the queue depth an
	// admission controller sheds on. TryAcquire pollers never count: they
	// are opportunistic by contract and back off on their own.
	waiting atomic.Int64
}

// NewLimiter returns a limiter admitting n concurrent holders; n <= 0
// selects GOMAXPROCS.
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Limiter{ch: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning the
// context's error in the latter case. A nil Limiter admits immediately.
// The fast path (slot free) costs one atomic counter increment over the
// channel send; the clock is read only once a caller actually queues.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	select {
	case l.ch <- struct{}{}:
		acquireImmediate.Inc()
		return nil
	default:
	}
	rec := obs.FromContext(ctx)
	start := obs.Now()
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	select {
	case l.ch <- struct{}{}:
		d := obs.Since(start)
		acquireBlocked.Inc()
		blockedWait.ObserveSeconds(int64(d))
		rec.Observe(obs.StageLimiterWait, d)
		return nil
	case <-ctx.Done():
		acquireCancelled.Inc()
		rec.Observe(obs.StageLimiterWait, obs.Since(start))
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is immediately free, returning
// whether it did. A nil Limiter admits immediately (mirroring Acquire).
// It is the admission primitive of engine.Fan's nested workers: a unit
// that already holds a slot may fan its inner work across extra workers
// that each poll TryAcquire, so idle budget is used when available but a
// fully subscribed limiter can never deadlock on nested acquisition (the
// inner worker simply doesn't start).
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case l.ch <- struct{}{}:
		tryHit.Inc()
		return true
	default:
		tryMiss.Inc()
		return false
	}
}

// Release frees a slot taken by a successful Acquire.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	<-l.ch
}

// Cap returns the limiter's concurrency bound (0 for nil).
func (l *Limiter) Cap() int {
	if l == nil {
		return 0
	}
	return cap(l.ch)
}

// InFlight returns the number of currently held slots (0 for nil).
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.ch)
}

// Waiting returns the number of callers blocked in Acquire (0 for nil).
// Together with InFlight and Cap it is the load signal the serve layer's
// admission controller sheds on: a saturated pool with a deep Acquire
// queue means new synchronous work would only time out in line.
func (l *Limiter) Waiting() int {
	if l == nil {
		return 0
	}
	return int(l.waiting.Load())
}

// Free is a tiny typed free list for per-worker scratch objects (e.g. the
// mapper's routing buffers). Unlike sync.Pool it never drops entries under
// GC pressure and never hands one object to two holders, so a bounded
// worker pool ends up owning exactly as many scratch objects as its peak
// concurrency, each staying warm (grown to the largest topology it has
// served) for the whole run.
type Free[T any] struct {
	mu    sync.Mutex
	items []*T
	newFn func() *T
}

// NewFree returns a free list producing fresh objects with newFn when
// empty.
func NewFree[T any](newFn func() *T) *Free[T] {
	return &Free[T]{newFn: newFn}
}

// Get pops a pooled object or makes a new one.
func (f *Free[T]) Get() *T {
	f.mu.Lock()
	if n := len(f.items); n > 0 {
		x := f.items[n-1]
		f.items = f.items[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.newFn()
}

// Put returns an object to the list for reuse. The caller must not touch x
// afterwards.
func (f *Free[T]) Put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (clamped to [1, n]). With one worker it runs inline in index order.
// Cancellation stops further fn calls; jobs already started finish (fn is
// expected to observe ctx itself for mid-job aborts).
func ForEach(ctx context.Context, n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain the channel without working
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
