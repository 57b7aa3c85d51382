package sunmap

import (
	"context"
	"io"

	"sunmap/internal/obs"
)

// Trace collects an execution trace of the pipeline stages a session
// runs on behalf of its caller: per-stage span counts and durations
// (select, map, evaluate, limiter-wait, ...), evaluation-cache hit/miss
// counts, and limiter acquisition outcomes. A Trace is safe for
// concurrent use and is purely additive: tracing never changes what an
// operation computes, and Reports stay byte-identical across every
// parallelism setting with a Trace attached.
//
// Attach one session-wide with WithTrace, or per call tree with
// Trace.Context. Timing comes from the audited obs clock and lives only
// in the trace — never in a Report.
type Trace struct {
	rec *obs.Recorder
}

// TraceSnapshot is a Trace's folded view: stages in fixed pipeline
// order plus the cache and limiter counters.
type TraceSnapshot = obs.TraceSnapshot

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return &Trace{rec: obs.NewRecorder()} }

// Snapshot folds the trace so far. Deterministically ordered: stages
// appear in pipeline order regardless of the concurrency that recorded
// them. Safe to call while operations are still running.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	return t.rec.Snapshot()
}

// WriteText renders the trace as a human-readable per-stage table (the
// CLI's -trace output).
func (t *Trace) WriteText(w io.Writer) {
	obs.FormatSnapshot(w, t.Snapshot())
}

// Context binds the trace into ctx, so any session operation run under
// the returned context records into t — the per-request form of
// WithTrace. A nil Trace returns ctx unchanged.
func (t *Trace) Context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.WithRecorder(ctx, t.rec)
}

// WithTrace attaches a trace collector to every operation the session
// runs. A context-bound Trace (Trace.Context) takes precedence for the
// calls under it. Tracing costs two atomic adds and two monotonic clock
// reads per stage — nothing on the per-swap hot paths — and a nil or
// absent Trace costs one branch.
func WithTrace(t *Trace) SessionOption {
	return func(c *sessionConfig) error {
		c.trace = t
		return nil
	}
}

// Per-op rates and latencies in the process-wide registry. Each op's
// children are resolved in its op-table entry; Do picks them with one map
// lookup per operation — far off any hot path.
var (
	opSeconds = obs.Default.HistogramVec("sunmap_op_seconds", "operation latency by op", nil, "op")
	opTotal   = obs.Default.CounterVec("sunmap_op_total", "operations executed by op and outcome", "op", "outcome")
)

// traceCtx resolves the effective recorder for one operation: an
// explicit context binding wins, else the session-wide Trace is bound,
// else the context passes through untouched (the disabled fast path).
func (s *Session) traceCtx(ctx context.Context) context.Context {
	if s.trace == nil || obs.FromContext(ctx) != nil {
		return ctx
	}
	return obs.WithRecorder(ctx, s.trace.rec)
}
