// Package jobs is the durability layer under `sunmap serve`'s async job
// API: a lifecycle store (queued → running → done/failed/cancelled)
// whose every transition is journaled to an append-only, fsync'd,
// checksum-framed file before it is acknowledged. A process that dies —
// SIGKILL, OOM, power — reopens the journal, truncates the torn tail,
// and finds every acknowledged job either terminal (result intact) or
// re-queued for execution; jobs that published checkpoints resume from
// their latest one instead of restarting, and the checkpoint/resume
// contract upstream (internal/search) makes the resumed result
// bit-identical to an uninterrupted run.
//
// The store is payload-agnostic: payloads, results and checkpoints are
// opaque bytes, and execution is delegated to the Runner the caller
// passes to Open. Robustness policy lives here too: a panicking runner
// is quarantined into a failed job, and a run of consecutive panics
// opens a circuit breaker that sheds new submissions with a retry hint
// until a cooldown passes.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sunmap/internal/obs"
)

// Process-wide job-lifecycle counters. Children are resolved once with
// constant labels (the obslabel contract), so transitions cost one
// atomic add under the store mutex.
var (
	jobEvents     = obs.Default.CounterVec("sunmap_jobs_total", "job lifecycle transitions by event", "event")
	jobSubmitted  = jobEvents.With("submitted")
	jobDone       = jobEvents.With("done")
	jobFailed     = jobEvents.With("failed")
	jobCancelled  = jobEvents.With("cancelled")
	jobPanics     = jobEvents.With("panic")
	jobShed       = jobEvents.With("breaker-shed")
	jobRunSeconds = obs.Default.Histogram("sunmap_job_run_seconds", "wall time of one job execution attempt", nil)
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors.
var (
	// ErrUnknownJob reports an ID the store has never seen (or has
	// already garbage-collected).
	ErrUnknownJob = errors.New("unknown job")
	// ErrNotTerminal reports a result fetch on a job still in flight.
	ErrNotTerminal = errors.New("job not finished")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("job store closed")
	// ErrPanic marks a job failed by a panicking runner.
	ErrPanic = errors.New("runner panicked")
)

// BreakerOpenError sheds a submission while the panic circuit breaker
// is open. RetryAfter is the remaining cooldown.
type BreakerOpenError struct {
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("jobs: breaker open after repeated runner panics; retry in %s", e.RetryAfter.Round(time.Millisecond))
}

// Runner executes one job. ctx is cancelled on job cancellation and on
// store shutdown; ck carries the job's latest journaled checkpoint (nil
// Latest when none) and accepts new ones via Save. The returned bytes
// are the job's durable result.
type Runner func(ctx context.Context, kind string, payload []byte, ck *Checkpoint) ([]byte, error)

// Options configures a store. Zero values select the defaults.
type Options struct {
	// Dir is the journal directory; empty runs the store memory-only
	// (no durability — useful for tests and ephemeral servers).
	Dir string
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// Retention is how long terminal jobs stay fetchable before GC
	// (default 1h).
	Retention time.Duration
	// BreakerThreshold is the consecutive-panic count that opens the
	// circuit breaker (default 5); BreakerCooldown how long it sheds
	// submissions before half-opening (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock overrides the wall clock (tests; default obs.Now, the
	// audited source).
	Clock func() time.Time
	// WriteFault, when set, runs before every journal append and fails
	// the append with its error — the chaos harness's fault injector.
	WriteFault func(recType, id string) error
	// Logger receives degraded-path notices (journal write failures,
	// runner panics, breaker transitions), each line carrying the job
	// and request correlation ids. Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Retention <= 0 {
		o.Retention = time.Hour
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.Clock == nil {
		o.Clock = obs.Now
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	return o
}

// Job is a point-in-time snapshot of one job, also the wire shape the
// serve layer returns from GET /v1/jobs/{id}.
type Job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Error carries the failure (or cancellation) detail for terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// Attempts counts executions started, across restarts: 2 means the
	// job was interrupted once and re-run.
	Attempts int `json:"attempts"`
	// HasCheckpoint reports a journaled resume point.
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
	// ReqID is the request-correlation id the submission carried
	// (SubmitTagged), tying this job's journal records and log lines
	// back to the HTTP request that created it. Durable across restarts.
	ReqID string `json:"req,omitempty"`
}

// Stats snapshots store health.
type Stats struct {
	Jobs    int `json:"jobs"`
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// WriteFailures counts journal appends that failed after the job was
	// already admitted (mid-run records degrade instead of aborting).
	WriteFailures uint64 `json:"write_failures,omitempty"`
	// BreakerOpen reports the panic circuit breaker shedding submissions.
	BreakerOpen bool `json:"breaker_open,omitempty"`
}

// job is the store-internal mutable record.
type job struct {
	id          string
	kind        string
	reqID       string
	payload     []byte
	state       State
	errMsg      string
	result      []byte
	ckpt        []byte
	attempts    int
	submittedAt time.Time
	doneAt      time.Time
	cancelled   bool
	cancel      context.CancelFunc // set while running
	done        chan struct{}      // closed on terminal transition
}

func (jb *job) snapshot() Job {
	return Job{
		ID:            jb.id,
		Kind:          jb.kind,
		State:         jb.state,
		Error:         jb.errMsg,
		Attempts:      jb.attempts,
		HasCheckpoint: len(jb.ckpt) > 0,
		ReqID:         jb.reqID,
	}
}

// Store is a crash-safe job store. All exported methods are safe for
// concurrent use.
type Store struct {
	opts Options
	run  Runner

	mu         sync.Mutex
	j          *journal // nil when memory-only
	jobs       map[string]*job
	order      []string // submission order: the deterministic iteration spine
	queue      []string
	seq        int
	closed     bool
	writeFails uint64
	// Panic circuit breaker: consecutive panics and the shed horizon.
	failures  int
	openUntil time.Time

	wake chan struct{}
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// Open replays the journal in opts.Dir (creating it as needed),
// compacts it, re-queues every non-terminal job, and starts the worker
// and retention-GC goroutines. ctx scopes the open itself; the
// background goroutines detach and run until Close.
func Open(ctx context.Context, opts Options, run Runner) (*Store, error) {
	if run == nil {
		return nil, errors.New("jobs: nil runner")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Store{
		opts: opts.withDefaults(),
		run:  run,
		jobs: make(map[string]*job),
	}
	s.wake = make(chan struct{}, s.opts.Workers)
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: creating journal dir: %w", err)
		}
		j, err := openJournal(filepath.Join(opts.Dir, "jobs.journal"))
		if err != nil {
			return nil, err
		}
		if s.opts.WriteFault != nil {
			fault := s.opts.WriteFault
			j.fault = func(rec record) error { return fault(rec.Type, rec.ID) }
		}
		recs, err := j.replay()
		if err != nil {
			j.close()
			return nil, err
		}
		s.j = j
		s.rebuild(recs)
		if err := j.rewrite(s.compactRecords()); err != nil {
			j.close()
			return nil, err
		}
	}

	// The workers and the GC ticker outlive Open's ctx by design: jobs
	// keep running after the submitting request disconnects — that is
	// the point of the package. Close cancels them.
	bg, cancel := context.WithCancel(context.Background()) //sunmap:detached
	s.stop = cancel
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker(bg)
	}
	s.wg.Add(1)
	go s.gcLoop(bg)

	// Re-wake workers for replayed work.
	s.mu.Lock()
	pending := len(s.queue)
	s.mu.Unlock()
	for i := 0; i < pending && i < s.opts.Workers; i++ {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return s, nil
}

// rebuild reconstitutes in-memory state from replayed records. Jobs
// found queued or running are re-queued: a "running" journal state with
// no terminal record is exactly what a crash mid-execution leaves.
func (s *Store) rebuild(recs []record) {
	for _, rec := range recs {
		switch rec.Type {
		case recSubmit:
			jb := &job{
				id:          rec.ID,
				kind:        rec.Kind,
				reqID:       rec.Req,
				payload:     append([]byte(nil), rec.Payload...),
				state:       StateQueued,
				submittedAt: time.Unix(0, rec.At),
				done:        make(chan struct{}),
			}
			s.jobs[rec.ID] = jb
			s.order = append(s.order, rec.ID)
			var n int
			if _, err := fmt.Sscanf(rec.ID, "j-%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
		case recState:
			if jb := s.jobs[rec.ID]; jb != nil {
				jb.state = rec.State
				jb.errMsg = rec.Error
				if rec.State == StateRunning {
					jb.attempts++
				}
				if rec.State.Terminal() {
					jb.doneAt = time.Unix(0, rec.At)
				}
			}
		case recCkpt:
			if jb := s.jobs[rec.ID]; jb != nil {
				jb.ckpt = append([]byte(nil), rec.Ckpt...)
			}
		case recResult:
			if jb := s.jobs[rec.ID]; jb != nil {
				jb.state = StateDone
				jb.result = append([]byte(nil), rec.Result...)
				jb.doneAt = time.Unix(0, rec.At)
			}
		case recGC:
			delete(s.jobs, rec.ID)
			for i, id := range s.order {
				if id == rec.ID {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
	for _, id := range s.order {
		jb := s.jobs[id]
		if jb.state.Terminal() {
			close(jb.done)
			continue
		}
		jb.state = StateQueued
		s.queue = append(s.queue, id)
	}
}

// compactRecords flattens current state to one submit + latest
// checkpoint + terminal record per live job, in submission order.
func (s *Store) compactRecords() []record {
	var recs []record
	for _, id := range s.order {
		jb := s.jobs[id]
		recs = append(recs, record{
			Type: recSubmit, ID: id, Kind: jb.kind, Req: jb.reqID, Payload: jb.payload,
			At: jb.submittedAt.UnixNano(),
		})
		for i := 0; i < jb.attempts; i++ {
			recs = append(recs, record{Type: recState, ID: id, State: StateRunning})
		}
		if len(jb.ckpt) > 0 {
			recs = append(recs, record{Type: recCkpt, ID: id, Ckpt: jb.ckpt})
		}
		switch {
		case jb.state == StateDone:
			recs = append(recs, record{Type: recResult, ID: id, Result: jb.result, At: jb.doneAt.UnixNano()})
		case jb.state.Terminal():
			recs = append(recs, record{Type: recState, ID: id, State: jb.state, Error: jb.errMsg, At: jb.doneAt.UnixNano()})
		}
	}
	return recs
}

// appendLocked journals one record with the store mutex held. A false
// return means the record is not durable; the counter is bumped and the
// caller decides whether that is fatal for its operation.
func (s *Store) appendLocked(rec record) bool {
	if s.j == nil {
		return true
	}
	if err := s.j.append(rec); err != nil {
		s.writeFails++
		s.opts.Logger.Warn("jobs: journal append failed; continuing with reduced durability",
			obs.KeyJobID, rec.ID, "record", rec.Type, "error", err)
		return false
	}
	return true
}

// Submit admits a job. It fails with ErrClosed on a closed store, a
// *BreakerOpenError while the panic breaker is shedding, and the
// journal's error when the submit record cannot be made durable — an
// acknowledged submission is always recoverable.
func (s *Store) Submit(ctx context.Context, kind string, payload []byte) (Job, error) {
	return s.SubmitTagged(ctx, kind, payload, "")
}

// SubmitTagged is Submit carrying a request-correlation id: reqID is
// journaled with the submit record and surfaces on every later snapshot
// of the job, so the serve layer's per-request id follows the job into
// the journal and back out across restarts. Empty reqID is Submit.
func (s *Store) SubmitTagged(ctx context.Context, kind string, payload []byte, reqID string) (Job, error) {
	if err := ctx.Err(); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	now := s.opts.Clock()
	if s.failures >= s.opts.BreakerThreshold && now.Before(s.openUntil) {
		jobShed.Inc()
		return Job{}, &BreakerOpenError{RetryAfter: s.openUntil.Sub(now)}
	}
	s.seq++
	id := fmt.Sprintf("j-%d", s.seq)
	jb := &job{
		id:          id,
		kind:        kind,
		reqID:       reqID,
		payload:     append([]byte(nil), payload...),
		state:       StateQueued,
		submittedAt: now,
		done:        make(chan struct{}),
	}
	if s.j != nil {
		if err := s.j.append(record{Type: recSubmit, ID: id, Kind: kind, Req: reqID, Payload: jb.payload, At: now.UnixNano()}); err != nil {
			s.seq--
			return Job{}, err
		}
	}
	jobSubmitted.Inc()
	s.jobs[id] = jb
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return jb.snapshot(), nil
}

// Get returns a job snapshot.
func (s *Store) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return Job{}, fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	return jb.snapshot(), nil
}

// List returns all live jobs in submission order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Result returns a terminal job's result bytes (nil for failed and
// cancelled jobs) alongside its snapshot; ErrNotTerminal while it is
// still queued or running.
func (s *Store) Result(id string) ([]byte, Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return nil, Job{}, fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	if !jb.state.Terminal() {
		return nil, jb.snapshot(), fmt.Errorf("jobs: %w: %s is %s", ErrNotTerminal, id, jb.state)
	}
	return jb.result, jb.snapshot(), nil
}

// Cancel requests cancellation: a queued job transitions immediately, a
// running one has its context cancelled and transitions when the runner
// returns, a terminal one is left as-is.
func (s *Store) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb := s.jobs[id]
	if jb == nil {
		return Job{}, fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	switch jb.state {
	case StateQueued:
		jb.cancelled = true
		s.terminalLocked(jb, StateCancelled, "cancelled before start", nil)
	case StateRunning:
		jb.cancelled = true
		if jb.cancel != nil {
			jb.cancel()
		}
	}
	return jb.snapshot(), nil
}

// Wait blocks until the job is terminal or ctx is done.
func (s *Store) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		return Job{}, fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	select {
	case <-jb.done:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return jb.snapshot(), nil
}

// Stats snapshots store health counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Jobs: len(s.jobs), WriteFailures: s.writeFails}
	for _, jb := range s.jobs { //sunmap:unordered
		switch jb.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	st.BreakerOpen = s.failures >= s.opts.BreakerThreshold && s.opts.Clock().Before(s.openUntil)
	return st
}

// Close stops the workers and GC and closes the journal. In-flight jobs
// are interrupted without a terminal record — exactly like a crash — so
// a later Open re-queues them; their journaled checkpoints survive.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.close()
}

// terminalLocked applies a terminal transition, journals it, and wakes
// waiters. Journal failures degrade (the transition stands in memory).
func (s *Store) terminalLocked(jb *job, st State, msg string, result []byte) {
	jb.state = st
	jb.errMsg = msg
	jb.doneAt = s.opts.Clock()
	if st == StateDone {
		jb.result = result
		s.appendLocked(record{Type: recResult, ID: jb.id, Result: result, At: jb.doneAt.UnixNano()})
	} else {
		s.appendLocked(record{Type: recState, ID: jb.id, State: st, Error: msg, At: jb.doneAt.UnixNano()})
	}
	switch st {
	case StateDone:
		jobDone.Inc()
	case StateFailed:
		jobFailed.Inc()
	case StateCancelled:
		jobCancelled.Inc()
	}
	close(jb.done)
}

func (s *Store) pop() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		if jb := s.jobs[id]; jb != nil && jb.state == StateQueued {
			return jb
		}
	}
	return nil
}

func (s *Store) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		for ctx.Err() == nil {
			jb := s.pop()
			if jb == nil {
				break
			}
			s.runJob(ctx, jb)
		}
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// runJob executes one job under panic quarantine. On store shutdown
// mid-run it deliberately writes no terminal record: the journal's last
// word stays "running", which the next Open re-queues — the crash-safety
// path and the graceful-shutdown path are the same path.
func (s *Store) runJob(ctx context.Context, jb *job) {
	s.mu.Lock()
	if jb.state != StateQueued {
		s.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	jb.cancel = cancel
	jb.state = StateRunning
	jb.attempts++
	s.appendLocked(record{Type: recState, ID: jb.id, State: StateRunning, At: s.opts.Clock().UnixNano()})
	ck := &Checkpoint{s: s, id: jb.id}
	kind, payload := jb.kind, jb.payload
	s.mu.Unlock()

	start := obs.Now()
	var panicked bool
	result, err := func() (res []byte, rerr error) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				rerr = fmt.Errorf("%w: %v", ErrPanic, r)
			}
		}()
		return s.run(jctx, kind, payload, ck)
	}()
	cancel()
	jobRunSeconds.ObserveSeconds(int64(obs.Since(start)))

	s.mu.Lock()
	defer s.mu.Unlock()
	jb.cancel = nil
	switch {
	case jb.cancelled:
		s.terminalLocked(jb, StateCancelled, "cancelled", nil)
		s.failures = 0
	case ctx.Err() != nil && err != nil && !panicked:
		// Shutdown interrupted the run: leave the journal saying
		// "running" so replay re-runs it from its latest checkpoint.
		jb.state = StateQueued
	case err != nil:
		s.terminalLocked(jb, StateFailed, err.Error(), nil)
		if panicked {
			jobPanics.Inc()
			s.failures++
			s.opts.Logger.Warn("jobs: runner panicked; job quarantined",
				obs.KeyJobID, jb.id, obs.KeyReqID, jb.reqID, "kind", jb.kind, "consecutive", s.failures)
			if s.failures >= s.opts.BreakerThreshold {
				s.openUntil = s.opts.Clock().Add(s.opts.BreakerCooldown)
				s.opts.Logger.Warn("jobs: circuit breaker open; shedding submissions",
					"until", s.openUntil, "threshold", s.opts.BreakerThreshold)
			}
		} else {
			s.failures = 0
		}
	default:
		s.terminalLocked(jb, StateDone, "", result)
		s.failures = 0
	}
}

// gcLoop expires terminal jobs past the retention window.
func (s *Store) gcLoop(ctx context.Context) {
	defer s.wg.Done()
	interval := s.opts.Retention / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.gcOnce()
		}
	}
}

// gcOnce tombstones expired terminal jobs (one gc record each) and
// forgets them. Iteration follows the submission-order spine, so the
// tombstone order is deterministic.
func (s *Store) gcOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	kept := s.order[:0]
	for _, id := range s.order {
		jb := s.jobs[id]
		if jb.state.Terminal() && now.Sub(jb.doneAt) >= s.opts.Retention {
			s.appendLocked(record{Type: recGC, ID: id, At: now.UnixNano()})
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Checkpoint is the resume-point handle a Runner receives: Latest
// returns the newest journaled checkpoint (nil when none — a fresh
// run), Save journals a new one. Save is safe to call concurrently from
// the runner's own workers.
type Checkpoint struct {
	s  *Store
	id string
}

// Latest returns a copy of the job's newest checkpoint, or nil.
func (c *Checkpoint) Latest() []byte {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	jb := c.s.jobs[c.id]
	if jb == nil || len(jb.ckpt) == 0 {
		return nil
	}
	return append([]byte(nil), jb.ckpt...)
}

// Save journals a new checkpoint. The in-memory copy is updated even
// when the journal write fails (the error reports reduced durability,
// not a lost checkpoint for this process's lifetime).
func (c *Checkpoint) Save(b []byte) error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	jb := c.s.jobs[c.id]
	if jb == nil {
		return fmt.Errorf("jobs: %w: %s", ErrUnknownJob, c.id)
	}
	jb.ckpt = append([]byte(nil), b...)
	if !c.s.appendLocked(record{Type: recCkpt, ID: c.id, Ckpt: jb.ckpt, At: c.s.opts.Clock().UnixNano()}) {
		return fmt.Errorf("jobs: checkpoint for %s not durable", c.id)
	}
	return nil
}
