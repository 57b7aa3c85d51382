package obs

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline stage. The table is fixed
// at compile time: spans aggregate into a flat per-stage array indexed
// by Stage, which is what makes recording lock-free (two atomic adds)
// and the fold deterministic (iterate in Stage order, never map order).
type Stage uint8

const (
	// Session operations, one per request op.
	StageSelect Stage = iota
	StageMap
	StageRoutingSweep
	StagePareto
	StageSimulate
	StageGenerate
	StageFaultSweep
	StageSearch
	// Engine internals.
	StageEvaluate    // one mapping evaluation (cache misses only)
	StageLimiterWait // blocking admission wait ahead of an evaluation

	numStages
)

var stageNames = [numStages]string{
	StageSelect:       "select",
	StageMap:          "map",
	StageRoutingSweep: "routing-sweep",
	StagePareto:       "pareto",
	StageSimulate:     "simulate",
	StageGenerate:     "generate",
	StageFaultSweep:   "fault-sweep",
	StageSearch:       "search",
	StageEvaluate:     "evaluate",
	StageLimiterWait:  "limiter-wait",
}

// String returns the stage's exposition name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage-%d", uint8(s))
}

// stageStats is one stage's aggregate. Padded out to its own cache line
// so concurrent workers recording different stages never false-share.
type stageStats struct {
	count atomic.Uint64
	nanos atomic.Int64
	_     [48]byte
}

// Recorder aggregates span durations and pipeline counters. All methods
// are lock-free (plain atomics), nil-safe (a nil recorder is the
// disabled fast path — every operation reduces to one branch), and safe
// for concurrent use from any number of worker goroutines. Snapshot is
// the deterministic fold: stages in Stage order, counters in a fixed
// struct — byte-identical output for identical activity regardless of
// the parallelism that produced it.
type Recorder struct {
	stats [numStages]stageStats

	// Pipeline counters outside the duration table.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	tryHits     atomic.Uint64
	tryMisses   atomic.Uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Span is one in-flight stage timing. The zero Span (from a nil
// recorder) is inert: End on it is a single branch.
type Span struct {
	r     *Recorder
	stage Stage
	start time.Time
}

// Start opens a span for the stage. On a nil recorder it returns the
// inert zero Span without reading the clock.
func (r *Recorder) Start(stage Stage) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, stage: stage, start: Now()}
}

// End closes the span, folding its duration into the stage aggregate.
func (s Span) End() {
	if s.r == nil {
		return
	}
	st := &s.r.stats[s.stage]
	st.count.Add(1)
	st.nanos.Add(int64(Since(s.start)))
}

// Observe folds one externally timed duration into a stage — for call
// sites that already read the clock for their own reporting (the
// engine's per-job Elapsed) and shouldn't pay for a second span read.
func (r *Recorder) Observe(stage Stage, d time.Duration) {
	if r == nil {
		return
	}
	st := &r.stats[stage]
	st.count.Add(1)
	st.nanos.Add(int64(d))
}

// CacheHit / CacheMiss record one evaluation-cache lookup outcome.
func (r *Recorder) CacheHit() {
	if r != nil {
		r.cacheHits.Add(1)
	}
}

// CacheMiss records one evaluation-cache miss.
func (r *Recorder) CacheMiss() {
	if r != nil {
		r.cacheMisses.Add(1)
	}
}

// LimiterPoll records one opportunistic limiter poll outcome — the
// signal that distinguishes "parallel but starved" (misses dominate)
// from "never asked" (no samples at all).
func (r *Recorder) LimiterPoll(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.tryHits.Add(1)
	} else {
		r.tryMisses.Add(1)
	}
}

// StageSnapshot is one stage's folded aggregate.
type StageSnapshot struct {
	Stage string `json:"stage"`
	Count uint64 `json:"count"`
	Nanos int64  `json:"nanos"`
}

// TraceSnapshot is a recorder's deterministic fold: stages in Stage
// order (zero-count stages omitted) plus the pipeline counters. Blocked
// and WaitNanos repeat the limiter-wait stage row: the blocking limiter
// acquisitions that had to queue, and their total wait.
type TraceSnapshot struct {
	Stages      []StageSnapshot `json:"stages"`
	CacheHits   uint64          `json:"cache_hits"`
	CacheMisses uint64          `json:"cache_misses"`
	TryHits     uint64          `json:"try_hits"`
	TryMisses   uint64          `json:"try_misses"`
	Blocked     uint64          `json:"blocked"`
	WaitNanos   int64           `json:"wait_nanos"`
}

// Snapshot folds the recorder. Safe to call while spans are still being
// recorded; the result is a consistent-enough point-in-time view (each
// stage's count and nanos are read independently).
func (r *Recorder) Snapshot() TraceSnapshot {
	var ts TraceSnapshot
	if r == nil {
		return ts
	}
	for st := Stage(0); st < numStages; st++ {
		n := r.stats[st].count.Load()
		if n == 0 {
			continue
		}
		ts.Stages = append(ts.Stages, StageSnapshot{
			Stage: st.String(),
			Count: n,
			Nanos: r.stats[st].nanos.Load(),
		})
	}
	ts.CacheHits = r.cacheHits.Load()
	ts.CacheMisses = r.cacheMisses.Load()
	ts.TryHits = r.tryHits.Load()
	ts.TryMisses = r.tryMisses.Load()
	ts.Blocked = r.stats[StageLimiterWait].count.Load()
	ts.WaitNanos = r.stats[StageLimiterWait].nanos.Load()
	return ts
}

// ctxKey carries the recorder through context.
type ctxKey struct{}

// WithRecorder binds a recorder into the context. Pipeline stages below
// (session ops, the engine, the sweepers) pick it up with FromContext;
// a context without one records nothing at zero cost.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the bound recorder, or nil — the disabled path.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// FormatSnapshot renders a human-readable per-stage table (the CLI's
// -trace output). Rows follow snapshot order, which is Stage order.
func FormatSnapshot(w io.Writer, ts TraceSnapshot) {
	fmt.Fprintf(w, "%-16s %10s %14s %14s\n", "stage", "count", "total", "mean")
	for _, st := range ts.Stages {
		total := time.Duration(st.Nanos)
		mean := time.Duration(0)
		if st.Count > 0 {
			mean = total / time.Duration(st.Count)
		}
		fmt.Fprintf(w, "%-16s %10d %14s %14s\n", st.Stage, st.Count, total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "cache hits/misses: %d/%d; limiter try hit/miss: %d/%d; blocked %d for %s\n",
		ts.CacheHits, ts.CacheMisses, ts.TryHits, ts.TryMisses,
		ts.Blocked, time.Duration(ts.WaitNanos).Round(time.Microsecond))
}
