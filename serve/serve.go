// Package serve puts an HTTP/JSON front-end on a sunmap.Session: the
// batch optimization service the `sunmap serve` subcommand runs. Requests
// and responses use exactly the serializable Request/Report schema of the
// root package, so a client can marshal a sunmap.Request, POST it, and
// decode the body back as a sunmap.Report with no service-specific types.
//
// Synchronous endpoints:
//
//	POST /v1/do     one Request  -> one Report
//	POST /v1/batch  {"requests": [...]} -> {"reports": [...], "cache": {...}, "serve": {...}}
//	GET  /healthz   liveness probe
//
// Asynchronous job endpoints:
//
//	POST   /v1/jobs             one Request -> 202 + job snapshot
//	GET    /v1/jobs             list live jobs
//	GET    /v1/jobs/{id}        poll one job
//	GET    /v1/jobs/{id}/result fetch a terminal job's Report
//	DELETE /v1/jobs/{id}        cancel
//
// Jobs are journaled by internal/jobs: a crash or restart re-queues
// interrupted jobs, and search jobs resume from their latest annealing
// checkpoint with bit-identical results. Overload policy: when the
// session's evaluation pool has more blocked callers than the queue-depth
// threshold, synchronous requests are shed with 429 + Retry-After
// (health probes and job submissions are never shed — the async path is
// the pressure relief); a job runner panicking repeatedly opens a
// circuit breaker that sheds submissions with 503 + Retry-After.
//
// Error mapping: structurally invalid bodies are HTTP 400; valid requests
// whose operation fails still return 200 with Report.Error/ErrorKind set
// (an infeasible selection is a result, not a transport failure). Every
// request is bounded by a per-request timeout, and ListenAndServe shuts
// down gracefully when its context is cancelled.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sunmap"
	"sunmap/internal/jobs"
	"sunmap/internal/obs"
)

// Options tunes the HTTP front-end. The zero value is production-safe.
type Options struct {
	// RequestTimeout bounds each request's processing time when the
	// Request itself does not carry a tighter TimeoutMS (default 2m).
	RequestTimeout time.Duration
	// MaxBatch caps the request count of one /v1/batch call (default 256).
	MaxBatch int
	// MaxBodyBytes caps the request body size (default 8 MiB).
	MaxBodyBytes int64
	// MaxQueueDepth is the admission-control threshold: synchronous
	// requests are shed with 429 once this many callers are blocked
	// waiting for an evaluation slot. 0 selects 4x the session's
	// parallelism; negative disables shedding.
	MaxQueueDepth int
	// JobsDir is the job journal directory; empty keeps the job store
	// memory-only (jobs do not survive a restart).
	JobsDir string
	// JobWorkers bounds concurrent job executions (default 2).
	JobWorkers int
	// JobRetention is how long terminal jobs stay fetchable (default 1h).
	JobRetention time.Duration
	// CheckpointEvery is the annealing-evaluation interval at which each
	// search chain emits a checkpoint (default 500). Emissions are not
	// journaled one by one: a per-job writer journals the newest blob of
	// all chains whenever the previous write has finished.
	CheckpointEvery int
	// OnListen, when set, receives the bound address before serving
	// starts — the way a ":0" server's actual port becomes observable.
	OnListen func(net.Addr)
	// Logger receives the server's structured diagnostics, each line
	// carrying request-id (and job-id) correlation fields. Nil selects a
	// text logger on stderr at Info.
	Logger *slog.Logger
	// EnableMetrics registers GET /metrics: the process-wide and
	// per-server registries in Prometheus text format. The scrape path
	// reads only atomics and never takes a lock request admission could
	// be queued behind.
	EnableMetrics bool
	// EnablePprof registers the /debug/pprof/* profiling endpoints.
	// Opt-in: profiles expose internals and cost CPU while sampling, so
	// they have no place on an exposed listener by default.
	EnablePprof bool
	// journalFault, when set, runs before every job journal append (the
	// jobs.Options.WriteFault hook); tests use it to stall or observe
	// appends.
	journalFault func(recType, id string) error
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 500
	}
	return o
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []sunmap.Request `json:"requests"`
}

// ServeStats is the service-health envelope returned alongside batch
// reports: the session pool's pressure, requests shed so far, and the
// count of responses whose write failed after the header was committed
// (the failures writeJSON can no longer surface to that client).
type ServeStats struct {
	Load          sunmap.LoadStats `json:"load"`
	Shed          uint64           `json:"shed,omitempty"`
	WriteFailures uint64           `json:"write_failures,omitempty"`
	Jobs          *jobs.Stats      `json:"jobs,omitempty"`
}

// BatchResponse is the body of a /v1/batch reply: one Report per Request
// at the same index, plus a snapshot of the session cache and the serve
// layer's own health counters — the telemetry a load balancer or
// dashboard scrapes.
type BatchResponse struct {
	Reports []sunmap.Report       `json:"reports"`
	Cache   sunmap.EvalCacheStats `json:"cache"`
	Serve   *ServeStats           `json:"serve,omitempty"`
}

// errorBody is the JSON shape of transport-level failures (HTTP 4xx/5xx).
type errorBody struct {
	Error string `json:"error"`
}

// Server is the serving front-end with a lifecycle: it owns the job
// store. Create with NewServer, serve its Handler, Close on the way out.
type Server struct {
	sess       *sunmap.Session
	opts       Options
	store      *jobs.Store
	root       http.Handler // route mux wrapped in the request-id middleware
	reg        *obs.Registry
	writeFails atomic.Uint64
	shedCount  atomic.Uint64
}

// NewServer builds a Server: opens the job store (journal replay
// re-queues interrupted jobs) and registers all endpoints. ctx scopes
// construction; the job workers run until Close.
func NewServer(ctx context.Context, s *sunmap.Session, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	sv := &Server{sess: s, opts: opts}
	store, err := jobs.Open(ctx, jobs.Options{
		Dir:        opts.JobsDir,
		Workers:    opts.JobWorkers,
		Retention:  opts.JobRetention,
		WriteFault: opts.journalFault,
		Logger:     sv.logger(),
	}, sv.runJob)
	if err != nil {
		return nil, err
	}
	sv.store = store
	sv.buildMux()
	return sv, nil
}

// Handler returns the server's HTTP handler (the route mux wrapped in
// the request-id middleware).
func (sv *Server) Handler() http.Handler { return sv.root }

// Close stops the job store; interrupted jobs stay re-runnable in the
// journal. Calls after the first return nil.
func (sv *Server) Close() error { return sv.store.Close() }

// defaultLogger is the fallback structured logger shared by servers
// whose Options carry no Logger.
var defaultLogger = obs.NewLogger(os.Stderr, slog.LevelInfo)

// logger resolves the server's structured logger. Resolution is by
// method, not construction, so a zero-built Server (tests) logs too.
func (sv *Server) logger() *slog.Logger {
	if sv.opts.Logger != nil {
		return sv.opts.Logger
	}
	return defaultLogger
}

// logf reports a degraded-path notice to the structured logger at Warn.
func (sv *Server) logf(format string, args ...any) {
	sv.logger().Warn(fmt.Sprintf(format, args...))
}

func (sv *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Health probes are never shed: a saturated server is alive.
		sv.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/do", func(w http.ResponseWriter, r *http.Request) {
		if sv.shed(w) {
			return
		}
		body, err := readBody(r, sv.opts.MaxBodyBytes)
		if err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		req, err := sunmap.ParseRequest(body)
		if err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		ctx, cancel := requestContext(r.Context(), *req, sv.opts.RequestTimeout)
		defer cancel()
		sv.writeJSON(w, http.StatusOK, sv.sess.Do(ctx, *req))
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if sv.shed(w) {
			return
		}
		body, err := readBody(r, sv.opts.MaxBodyBytes)
		if err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		var batch BatchRequest
		if err := json.Unmarshal(body, &batch); err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid request: %v", err)})
			return
		}
		if len(batch.Requests) == 0 {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid request: empty batch"})
			return
		}
		if len(batch.Requests) > sv.opts.MaxBatch {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("invalid request: batch of %d exceeds the %d cap", len(batch.Requests), sv.opts.MaxBatch),
			})
			return
		}
		// Each request gets its own processing budget, clocked from when a
		// batch worker dequeues it (Do applies TimeoutMS at dispatch), so a
		// request's budget does not shrink with its queue position. As on
		// /v1/do, a client may tighten the operator's default but never
		// widen it.
		// (negative timeouts are left alone so validation rejects them)
		defMS := int(sv.opts.RequestTimeout / time.Millisecond)
		for i := range batch.Requests {
			if t := batch.Requests[i].TimeoutMS; t == 0 || t > defMS {
				batch.Requests[i].TimeoutMS = defMS
			}
		}
		reports, _ := sv.sess.Batch(r.Context(), batch.Requests) // per-request failures live in the reports
		sv.writeJSON(w, http.StatusOK, BatchResponse{
			Reports: reports,
			Cache:   sv.sess.CacheStats(),
			Serve:   sv.stats(),
		})
	})
	sv.registerJobRoutes(mux)
	sv.registerObsRoutes(mux)
	sv.root = sv.withRequestID(mux)
}

func (sv *Server) registerJobRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Submissions are never queue-depth shed: enqueueing is cheap and
		// the async path is exactly where overloaded clients belong. The
		// panic breaker still applies.
		body, err := readBody(r, sv.opts.MaxBodyBytes)
		if err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		req, err := sunmap.ParseRequest(body)
		if err != nil {
			sv.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		jb, err := sv.store.SubmitTagged(r.Context(), req.Op, body, requestID(r.Context()))
		if err != nil {
			var open *jobs.BreakerOpenError
			if errors.As(err, &open) {
				w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(open.RetryAfter)))
				sv.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
				return
			}
			sv.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		sv.writeJSON(w, http.StatusAccepted, jb)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sv.writeJSON(w, http.StatusOK, map[string][]jobs.Job{"jobs": sv.store.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jb, err := sv.store.Get(r.PathValue("id"))
		if err != nil {
			sv.writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		sv.writeJSON(w, http.StatusOK, jb)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, jb, err := sv.store.Result(r.PathValue("id"))
		switch {
		case errors.Is(err, jobs.ErrUnknownJob):
			sv.writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		case errors.Is(err, jobs.ErrNotTerminal):
			w.Header().Set("Retry-After", "2")
			sv.writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		case err != nil:
			sv.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		case jb.State == jobs.StateDone:
			// The result bytes are a marshaled sunmap.Report; pass through.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			if _, werr := w.Write(res); werr != nil {
				sv.writeFails.Add(1)
				sv.logf("serve: writing job result: %v", werr)
			}
		case jb.State == jobs.StateCancelled:
			sv.writeJSON(w, http.StatusGone, errorBody{Error: "job cancelled: " + jb.Error})
		default: // failed
			sv.writeJSON(w, http.StatusInternalServerError, errorBody{Error: "job failed: " + jb.Error})
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jb, err := sv.store.Cancel(r.PathValue("id"))
		if err != nil {
			sv.writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		sv.writeJSON(w, http.StatusOK, jb)
	})
}

// stats snapshots the serve-layer health envelope.
func (sv *Server) stats() *ServeStats {
	js := sv.store.Stats()
	return &ServeStats{
		Load:          sv.sess.Load(),
		Shed:          sv.shedCount.Load(),
		WriteFailures: sv.writeFails.Load(),
		Jobs:          &js,
	}
}

// shed applies admission control to a synchronous request: when more
// callers are blocked on the session's evaluation pool than the
// threshold allows, reply 429 with a Retry-After estimate instead of
// joining a queue the request's own deadline would likely outlive.
func (sv *Server) shed(w http.ResponseWriter) bool {
	if sv.opts.MaxQueueDepth < 0 {
		return false
	}
	ld := sv.sess.Load()
	depth := sv.opts.MaxQueueDepth
	if depth == 0 {
		depth = 4 * ld.Capacity
		if depth <= 0 {
			depth = 64
		}
	}
	if ld.Waiting < depth {
		return false
	}
	sv.shedCount.Add(1)
	cap := ld.Capacity
	if cap < 1 {
		cap = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(1+ld.Waiting/cap))
	sv.writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error: fmt.Sprintf("overloaded: %d requests queued on %d evaluation slots; retry later or submit to /v1/jobs", ld.Waiting, ld.Capacity),
	})
	return true
}

// runJob executes one journaled job: the payload is the original POST
// /v1/jobs body (a sunmap.Request), the result a marshaled
// sunmap.Report. Search requests run with the checkpoint conduit wired
// to the job's journal; on shutdown the context error propagates so the
// store re-queues instead of recording a bogus terminal state.
func (sv *Server) runJob(ctx context.Context, kind string, payload []byte, ck *jobs.Checkpoint) ([]byte, error) {
	req, err := sunmap.ParseRequest(payload)
	if err != nil {
		return nil, err
	}
	var cp *sunmap.SearchCheckpoints
	if req.Op == sunmap.OpSearch {
		var flush func()
		cp, flush = sv.searchConduit(ck)
		defer flush()
	}
	rep := sv.sess.DoCheckpointed(ctx, *req, cp)
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: no terminal result
	}
	return json.Marshal(rep)
}

// searchConduit adapts the job checkpoint handle to the search layer's
// per-chain checkpoint stream. Sink only records the chain's newest
// checkpoint and kicks one writer goroutine; the writer folds every
// chain's newest checkpoint into one blob (sorted by chain index — the
// journal payload is deterministic) and saves it. Emissions that land
// while a Save is in flight merge into the next one, newest wins, so
// chains never wait on the journal and the fsync rate follows the disk.
// Any checkpoint is a valid resume point, so saving fewer only changes
// how much work a resume repeats. On resume the blob is decoded back
// into per-chain seeds. The returned flush saves the newest blob and
// joins the writer; call it after the search returns, before the job
// records its outcome.
func (sv *Server) searchConduit(ck *jobs.Checkpoint) (*sunmap.SearchCheckpoints, func()) {
	cp := &sunmap.SearchCheckpoints{Every: sv.opts.CheckpointEvery}
	latest := map[int]sunmap.SearchCheckpoint{}
	if raw := ck.Latest(); raw != nil {
		var chains []sunmap.SearchCheckpoint
		if err := json.Unmarshal(raw, &chains); err == nil {
			cp.Resume = chains
			for _, c := range chains {
				latest[c.Chain] = c
			}
		}
	}
	var (
		mu    sync.Mutex
		dirty bool // latest holds an emission not yet saved
	)
	kick, stop, exited := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	cp.Sink = func(c sunmap.SearchCheckpoint) {
		mu.Lock()
		latest[c.Chain] = c
		dirty = true
		mu.Unlock()
		select {
		case kick <- struct{}{}:
		default: // a kick is already pending; it will see this emission
		}
	}
	save := func() {
		mu.Lock()
		if !dirty {
			mu.Unlock()
			return
		}
		dirty = false
		blob := make([]sunmap.SearchCheckpoint, 0, len(latest))
		for _, v := range latest {
			blob = append(blob, v)
		}
		mu.Unlock()
		sort.Slice(blob, func(i, j int) bool { return blob[i].Chain < blob[j].Chain })
		raw, err := json.Marshal(blob)
		if err != nil {
			return
		}
		if err := ck.Save(raw); err != nil {
			sv.logf("serve: checkpoint not durable: %v", err)
		}
	}
	go func() {
		defer close(exited)
		for {
			select {
			case <-kick:
				save()
			case <-stop:
				return
			}
		}
	}()
	flush := func() {
		close(stop)
		<-exited
		save()
	}
	return cp, flush
}

// retrySeconds rounds a cooldown up to whole seconds, minimum 1.
func retrySeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// requestContext derives the processing context for one request: the
// request's own TimeoutMS when set, capped by the serve default — a
// client may tighten the operator's budget but never widen it.
func requestContext(parent context.Context, req sunmap.Request, def time.Duration) (context.Context, context.CancelFunc) {
	d := def
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; req.TimeoutMS > 0 && t < d {
		d = t
	}
	return context.WithTimeout(parent, d)
}

func readBody(r *http.Request, maxBytes int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("invalid request: body exceeds %d bytes", maxBytes)
	}
	return body, nil
}

// writeJSON writes a JSON response. An Encode failure after WriteHeader
// cannot reach this client anymore; it is counted (surfaced in the
// /v1/batch serve envelope) and logged instead of dropped.
func (sv *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		sv.writeFails.Add(1)
		sv.logf("serve: writing response: %v", err)
	}
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// shuts down gracefully: listeners close immediately, in-flight requests
// get drainTimeout to finish, then the job store is closed. The
// listener is opened explicitly before serving and reported through
// Options.OnListen, so ":0" servers can discover their port.
func ListenAndServe(ctx context.Context, addr string, s *sunmap.Session, opts Options, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	sv, err := NewServer(ctx, s, opts)
	if err != nil {
		return err
	}
	defer sv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr())
	}
	srv := &http.Server{
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		//sunmap:detached graceful drain: the trigger is the canceled ctx itself, so the drain deadline cannot descend from it
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
