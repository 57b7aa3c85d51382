package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sunmap/internal/obs"
)

// Limiter acquisition outcomes feed the process-wide registry: the
// blocking/tryAcquire split is the signal that distinguishes "workers
// never asked for slots" from "workers asked and were starved" when a
// parallel run reports speedup ≈ 1.0. Children are resolved once here,
// with constant labels, so the hot paths below stay at one atomic add.
var (
	limiterAcquires  = obs.Default.CounterVec("sunmap_limiter_acquire_total", "blocking limiter acquisitions by outcome", "outcome")
	acquireImmediate = limiterAcquires.With("immediate")
	acquireBlocked   = limiterAcquires.With("blocked")
	acquireCancelled = limiterAcquires.With("cancelled")
	limiterTries     = obs.Default.CounterVec("sunmap_limiter_try_total", "opportunistic limiter polls by outcome", "outcome")
	tryHit           = limiterTries.With("hit")
	tryMiss          = limiterTries.With("miss")
	blockedWait      = obs.Default.Histogram("sunmap_limiter_blocked_wait_seconds", "time spent queued for a limiter slot", nil)
)

// errRetired is the cancellation cause with which Fan retires its spare
// workers once the units run out. A wait that ends this way is Fan's own
// housekeeping, not a starved or cancelled acquisition, so acquire
// records nothing for it.
var errRetired = errors.New("engine: fan worker retired")

// Limiter is a counting semaphore bounding how many evaluations run at
// once across any number of concurrent engine calls. A Session owns one
// Limiter for its lifetime, so a batch of requests fanned out
// concurrently still keeps the process-wide mapping work within the
// session's parallelism budget.
//
// Its slot methods are unexported: only Evaluate's miss path and Fan's
// workers take slots, so every fan-out outside this package follows
// Fan's one admission rule. A nil Limiter admits immediately.
type Limiter struct {
	ch chan struct{}
	// waiting counts callers blocked in acquire — the queue depth an
	// admission controller sheds on. Pollers never count: they are
	// opportunistic by contract and back off on their own.
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

// acquire blocks until a slot is free or ctx is done, returning the
// context's error in the latter case. The fast path (slot free) costs
// one atomic counter increment over the channel send; the clock is read
// only once a caller actually queues.
func (l *Limiter) acquire(ctx context.Context) error {
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
		if !errors.Is(context.Cause(ctx), errRetired) {
			acquireCancelled.Inc()
			rec.Observe(obs.StageLimiterWait, obs.Since(start))
		}
		return ctx.Err()
	}
}

// tryAcquire takes a slot only if one is immediately free, returning
// whether it did.
func (l *Limiter) tryAcquire() bool {
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

// release frees a slot taken by acquire, tryAcquire or pollAcquire.
func (l *Limiter) release() {
	if l == nil {
		return
	}
	<-l.ch
}

// pollAcquire opportunistically takes a slot for a Fan worker nested
// under one that already holds a slot: it polls tryAcquire (every
// 500µs) instead of joining the blocking queue, so blocking acquire
// callers keep strict priority — a release wakes a blocked sender before
// a later tryAcquire can win the slot — and a fully subscribed limiter
// can never deadlock on nested acquisition. It returns true once a slot
// is held (the caller must release it), and false when ctx is done or
// giveUp reports the work has run out. A nil giveUp polls until
// acquisition or cancellation.
func (l *Limiter) pollAcquire(ctx context.Context, giveUp func() bool) bool {
	rec := obs.FromContext(ctx)
	if l == nil {
		rec = nil // unlimited admission: nothing worth recording
	}
	for {
		if giveUp != nil && giveUp() {
			return false
		}
		if l.tryAcquire() {
			rec.LimiterPoll(true)
			return true
		}
		rec.LimiterPoll(false)
		select {
		case <-ctx.Done():
			return false
		case <-time.After(500 * time.Microsecond):
		}
	}
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

// Waiting returns the number of callers blocked for a slot (0 for nil).
// Together with InFlight and Cap it is the load signal the serve layer's
// admission controller sheds on: a saturated pool with a deep queue
// means new synchronous work would only time out in line.
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
