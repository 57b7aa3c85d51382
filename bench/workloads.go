package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"sunmap"
	"sunmap/internal/jobs"
	"sunmap/serve"
)

// parallelism is the session evaluation-pool bound of every workload:
// the core count of the box the benchmark was sized on.
const parallelism = 2

// env is what every workload is set up from.
type env struct {
	seed   int64
	smoke  bool   // a few ops on a tiny corpus: the package test's mode
	outDir string // where runs may write (the job journal)
	want   digests
	// trace and spans instrument a traced instance; nil when untraced.
	trace *sunmap.Trace
	spans *spanLog
}

func (e env) session(p int) (*sunmap.Session, error) {
	opts := []sunmap.SessionOption{sunmap.WithParallelism(p)}
	if e.trace != nil {
		opts = append(opts, sunmap.WithTrace(e.trace))
	}
	return sunmap.NewSession(opts...)
}

func (e env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// instance is one set-up system under test that the load is sent to.
type instance interface {
	// do sends one op and verifies its report. id numbers the op (0 for
	// set-up work); body is the op's request JSON when already encoded.
	do(ctx context.Context, id int64, o op, body []byte) sample
	// probe takes a traced run's measurements that live outside the
	// session trace (server round trips, the job journal). It may close
	// the instance.
	probe(ctx context.Context) (map[string]float64, error)
	close() error
}

// load is the op stream of a workload: a closed loop's clients and
// rounds, or an open loop's schedule.
type load struct {
	clients int
	rounds  roundSource
	sched   []arrival
}

// workload pairs a set-up function with the load it is driven by. The
// reason each workload exists is in README.md.
type workload struct {
	setup func(context.Context, env) (instance, error)
	load  func(env) (load, error)
}

var workloads = map[string]workload{
	"select-cold": {setupSelectCold, func(e env) (load, error) {
		return load{clients: 1, rounds: selectColdRounds(e.rng(), e.smoke)}, nil
	}},
	"serve-warm": {setupServeWarm, func(e env) (load, error) {
		sched, err := serveSchedule(e.rng(), e.smoke)
		return load{sched: sched}, err
	}},
	"search-jobs": {setupSearchJobs, func(e env) (load, error) {
		return load{clients: 2, rounds: searchJobsRounds(e.rng(), e.smoke)}, nil
	}},
	"fault-sim": {setupFaultSim, func(e env) (load, error) {
		return load{clients: 1, rounds: faultSimRounds(e.rng(), e.smoke)}, nil
	}},
}

// drive runs the load against the instances. With more than one (a
// traced run: untraced and traced), every closed-loop op runs on each in
// turn, the order alternating by op, and open-loop arrivals are spread
// over them (see spread) — so all see the same ops under the same host
// load.
func drive(ctx context.Context, l load, seconds float64, insts []instance) ([]sample, time.Duration) {
	if l.sched != nil {
		assign := spread(l.sched, len(insts))
		return openLoop(serveConns, l.sched, func(id int64, a arrival) sample {
			k := assign[id-1]
			s := insts[k].do(ctx, id, a.o, a.body)
			s.instance = k
			return s
		})
	}
	return closedLoop(l.clients, seconds, l.rounds, func(id int64, o op) []sample {
		out := make([]sample, len(insts))
		for j := range insts {
			k := (j + int(id)) % len(insts)
			out[k] = insts[k].do(ctx, id, o, nil)
			out[k].instance = k
		}
		return out
	})
}

// spread assigns an open-loop schedule's arrivals to n instances: each
// op key's occurrences take the instances in turn, and ops sent only
// once (the misses) take them in turn among themselves.
func spread(sched []arrival, n int) []int {
	total := map[string]int{}
	for _, a := range sched {
		total[a.o.key]++
	}
	seen := map[string]int{}
	once := 0
	out := make([]int, len(sched))
	for i, a := range sched {
		if total[a.o.key] == 1 {
			out[i] = once % n
			once++
			continue
		}
		out[i] = seen[a.o.key] % n
		seen[a.o.key]++
	}
	return out
}

// doOp runs one op on a session and verifies its report.
func (e env) doOp(ctx context.Context, sess *sunmap.Session, id int64, o op) sample {
	sp := e.spans.begin("session.do", id, 0)
	t := time.Now()
	rep := sess.Do(ctx, o.req)
	s := sample{key: o.key, lat: time.Since(t)}
	e.spans.end(sp)
	s.err = e.want.checkReport(o.key, &rep)
	return s
}

// selectCold: one client, a fresh session per op (as each `sunmap -app`
// process starts with an empty cache), full selections with escalation.
type selectCold struct{ env }

func setupSelectCold(ctx context.Context, e env) (instance, error) {
	// One selection per paper app finishes the process's lazy set-up
	// (each topology family's tables, heap growth) before timing.
	for _, app := range paperApps {
		sess, err := e.session(parallelism)
		if err != nil {
			return nil, err
		}
		if s := e.doOp(ctx, sess, 0, selectOp(app, "mp")); s.err != nil {
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return &selectCold{e}, nil
}

func (w *selectCold) do(ctx context.Context, id int64, o op, _ []byte) sample {
	sess, err := w.session(parallelism)
	if err != nil {
		return sample{key: o.key, err: err}
	}
	return w.doOp(ctx, sess, id, o)
}

func (w *selectCold) probe(context.Context) (map[string]float64, error) { return nil, nil }
func (w *selectCold) close() error                                      { return nil }

// faultSim: one client on one session whose cache already holds every
// fault design's mapping; fault sweeps and simulations do the work.
type faultSim struct {
	env
	sess *sunmap.Session
}

func setupFaultSim(ctx context.Context, e env) (instance, error) {
	sess, err := e.session(parallelism)
	if err != nil {
		return nil, err
	}
	for _, d := range faultDesigns {
		rep := sess.Do(ctx, sunmap.Request{Op: sunmap.OpMap, Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{Name: d.app}, Topology: d.topo, Mapping: paperMap(d),
		}})
		if rep.Error != "" {
			return nil, fmt.Errorf("mapping %s onto %s: %s", d.app, d.topo, rep.Error)
		}
	}
	// One op of each kind finishes the lazy set-up (route tables,
	// sweeper and simulator buffers) before timing.
	for _, o := range []op{faultOp(faultDesigns[1], "k2", 0, 0.1), faultOp(faultDesigns[1], "k3", 1, 0), simOp("torus-4x4", "transpose", 1)} {
		if s := e.doOp(ctx, sess, 0, o); s.err != nil {
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return &faultSim{e, sess}, nil
}

func (w *faultSim) do(ctx context.Context, id int64, o op, _ []byte) sample {
	return w.doOp(ctx, w.sess, id, o)
}

func (w *faultSim) probe(context.Context) (map[string]float64, error) { return nil, nil }
func (w *faultSim) close() error                                      { return nil }

// Serve-warm's open-loop schedule: fixed absolute rates at roughly 25,
// 50, 75 and 100% of the throughput the seed code saturates at on a
// 2-core box with this mix (about 360 req/s). Changing them redefines
// the workload.
var serveRates = []float64{90, 180, 270, 360}

const (
	// nominalStep is the step whose latencies are the end-to-end metrics:
	// the 25% step. From the 50% step up, a 5% share of 30 ms misses that
	// hold both cores queues the hits behind them often enough that the
	// median swings several-fold between identical runs.
	nominalStep = 0
	// One in missStride requests (5%) is a first-seen RandomApp-16
	// select; the rest repeat the prefilled hot set.
	missStride = 20
	// sloMS is the p99 limit slo_rps is judged against: about twice the
	// seed code's nominal-step p99.
	sloMS = 100
	// serveConns is the number of keep-alive connections (and sender
	// goroutines) of the open loop.
	serveConns = 2
)

// serveWarm: Poisson arrivals on POST /v1/do against a server whose
// cache already holds the hot set.
type serveWarm struct {
	env
	srv    *server
	client *http.Client
}

func setupServeWarm(ctx context.Context, e env) (instance, error) {
	sess, err := e.session(parallelism)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, sess, serve.Options{})
	if err != nil {
		return nil, err
	}
	w := &serveWarm{env: e, srv: srv, client: newClient(serveConns)}
	for _, o := range hotSet() {
		if s := w.do(ctx, 0, o, nil); s.err != nil {
			w.close()
			return nil, fmt.Errorf("prefill: %w", s.err)
		}
	}
	return w, nil
}

// serveSchedule draws each step's arrivals: a fixed count (rate x step
// length) at uniform random times within the step — a Poisson process
// conditioned on its count, so every seed offers the same load. Every
// missStride-th arrival (from a random phase) is a first-seen miss, so
// misses keep their share in every window instead of clustering by
// chance; the hot ops fill the rest in shuffled order. An unreported
// warm-up step at the first rate comes first: the heap and the GC pacer
// settle after the prefill's burst during it.
func serveSchedule(rng *rand.Rand, smoke bool) ([]arrival, error) {
	warmLen, stepLen := serveWarmupSeconds, serveStepSeconds
	if smoke {
		warmLen, stepLen = 0.02, 0.05
	}
	hot := hotSet()
	misses := rng.Perm(rand16Corpus)
	var (
		sched []arrival
		t0    float64
	)
	for k := -1; k < len(serveRates); k++ {
		rate, secs := serveRates[max(k, 0)], stepLen
		if k < 0 {
			secs = warmLen
		}
		n := int(math.Round(rate * secs))
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration((t0 + rng.Float64()*secs) * float64(time.Second))
		}
		slices.Sort(at)
		t0 += secs
		end := time.Duration(t0 * float64(time.Second))
		hots := make([]op, n)
		for i := range hots {
			hots[i] = hot[i%len(hot)]
		}
		rng.Shuffle(n, func(i, j int) { hots[i], hots[j] = hots[j], hots[i] })
		phase := rng.Intn(missStride)
		for i := range at {
			o := hots[i]
			if i%missStride == phase {
				if len(misses) == 0 {
					return nil, fmt.Errorf("serve-warm needs more than the %d first-seen apps of the corpus", rand16Corpus)
				}
				o, misses = randSelectOp(16, int64(misses[0]+1)), misses[1:]
			}
			sched = append(sched, arrival{at: at[i], stepEnd: end, step: k, o: o, body: mustJSON(o.req)})
		}
	}
	return sched, nil
}

// The run lasts the warm-up and four steps whatever -seconds says: the
// schedule is part of the workload.
const (
	serveWarmupSeconds = 2.0
	serveStepSeconds   = 4.5
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // requests are plain structs; Marshal cannot fail
	}
	return b
}

// do sends one request to /v1/do and verifies the response bytes: the
// server writes a Report's canonical encoding plus a newline.
func (w *serveWarm) do(ctx context.Context, id int64, o op, body []byte) sample {
	if body == nil {
		body = mustJSON(o.req)
	}
	sp := w.spans.begin("http.do", id, 0)
	st, resp, err := roundTrip(ctx, w.client, http.MethodPost, w.srv.base+"/v1/do", body)
	w.spans.end(sp)
	s := sample{key: o.key, respBytes: len(resp)}
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: %w", o.key, err)
	case st != http.StatusOK:
		s.err = fmt.Errorf("%s: status %d: %.200s", o.key, st, resp)
	default:
		s.err = w.want.check(o.key, resp[:max(0, len(resp)-1)])
	}
	return s
}

func (w *serveWarm) probe(ctx context.Context) (map[string]float64, error) {
	t, err := transportMS(ctx, w.client, w.srv.base)
	return map[string]float64{"serve.transport_ms": t}, err
}

func (w *serveWarm) close() error {
	w.client.CloseIdleConnections()
	return w.srv.close()
}

// searchJobs: two clients submitting annealing searches to the durable
// job API, polling until done and fetching the result.
type searchJobs struct {
	env
	dir    string
	srv    *server
	client *http.Client
	// journal0 is the journal size after set-up; timed counts the jobs
	// submitted since.
	journal0 int64
	timed    atomic.Int64
}

// jobPoll is the client's poll interval.
const jobPoll = 5 * time.Millisecond

func setupSearchJobs(ctx context.Context, e env) (instance, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", e.outDir, err)
	}
	dir, err := os.MkdirTemp(e.outDir, "jobs-")
	if err != nil {
		return nil, fmt.Errorf("creating job dir: %w", err)
	}
	sess, err := e.session(parallelism)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := startServer(ctx, sess, serve.Options{JobsDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &searchJobs{env: e, dir: dir, srv: srv, client: newClient(2)}
	// One job warms the submit/run/poll path before timing.
	if s := w.do(ctx, 0, searchOp(searchApps()[0], searchBudgets[0], 1), nil); s.err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up job: %w", s.err)
	}
	if w.journal0, err = w.journalSize(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *searchJobs) journalSize() (int64, error) {
	fi, err := os.Stat(filepath.Join(w.dir, "jobs.journal"))
	if err != nil {
		return 0, fmt.Errorf("sizing the job journal: %w", err)
	}
	return fi.Size(), nil
}

// do submits one search job, polls it to a terminal state and verifies
// the fetched result.
func (w *searchJobs) do(ctx context.Context, id int64, o op, body []byte) sample {
	if body == nil {
		body = mustJSON(o.req)
	}
	if id > 0 {
		w.timed.Add(1)
	}
	s := sample{key: o.key}
	fail := func(format string, args ...any) sample {
		s.err = fmt.Errorf("%s: "+format, append([]any{o.key}, args...)...)
		return s
	}
	root := w.spans.begin("job", id, 0)
	defer w.spans.end(root)
	t0 := time.Now()
	sp := w.spans.begin("http.submit", id, root)
	st, body, err := roundTrip(ctx, w.client, http.MethodPost, w.srv.base+"/v1/jobs", body)
	w.spans.end(sp)
	s.submit = time.Since(t0)
	if err != nil || st != http.StatusAccepted {
		return fail("submit: status %d, %v: %.200s", st, err, body)
	}
	var jb jobs.Job
	if err := json.Unmarshal(body, &jb); err != nil {
		return fail("decoding submitted job: %v", err)
	}
	for !jb.State.Terminal() {
		select {
		case <-ctx.Done():
			return fail("polling: %v", ctx.Err())
		case <-time.After(jobPoll):
		}
		p := time.Now()
		sp := w.spans.begin("http.poll", id, root)
		st, body, err := roundTrip(ctx, w.client, http.MethodGet, w.srv.base+"/v1/jobs/"+jb.ID, nil)
		w.spans.end(sp)
		s.polls = append(s.polls, time.Since(p))
		if err != nil || st != http.StatusOK {
			return fail("poll: status %d, %v: %.200s", st, err, body)
		}
		if err := json.Unmarshal(body, &jb); err != nil {
			return fail("decoding polled job: %v", err)
		}
		if s.queueWait == 0 && jb.State != jobs.StateQueued {
			s.queueWait = time.Since(t0) - s.submit
		}
	}
	if jb.State != jobs.StateDone {
		return fail("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
	}
	sp = w.spans.begin("http.result", id, root)
	st, body, err = roundTrip(ctx, w.client, http.MethodGet, w.srv.base+"/v1/jobs/"+jb.ID+"/result", nil)
	w.spans.end(sp)
	s.lat = time.Since(t0)
	s.respBytes = len(body)
	if err != nil || st != http.StatusOK {
		return fail("result: status %d, %v: %.200s", st, err, body)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		return fail("%v", err)
	}
	s.err = w.want.checkReport(o.key, rep)
	return s
}

// probe measures the transport and the journal's growth per timed job,
// then closes the server and times a restart's replay of a copy of the
// closed journal.
func (w *searchJobs) probe(ctx context.Context) (map[string]float64, error) {
	t, err := transportMS(ctx, w.client, w.srv.base)
	if err != nil {
		return nil, err
	}
	if err := w.srv.close(); err != nil {
		return nil, err
	}
	size, err := w.journalSize()
	if err != nil {
		return nil, err
	}
	replay, err := w.replay(ctx)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"serve.transport_ms":      t,
		"jobs.journal_kb_per_job": ratio(float64(size-w.journal0)/1024, float64(w.timed.Load())),
		"jobs.replay_ms":          ms(replay),
	}, nil
}

// replay times jobs.Open on a copy of the closed journal: the work a
// restarted server does before it serves.
func (w *searchJobs) replay(ctx context.Context) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join(w.dir, "jobs.journal"))
	if err != nil {
		return 0, fmt.Errorf("reading the job journal: %w", err)
	}
	dir := filepath.Join(w.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("creating the replay dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.journal"), data, 0o644); err != nil {
		return 0, fmt.Errorf("copying the job journal: %w", err)
	}
	t := time.Now()
	st, err := jobs.Open(ctx, jobs.Options{Dir: dir}, func(context.Context, string, []byte, *jobs.Checkpoint) ([]byte, error) {
		return nil, errors.New("replayed a finished job") // every journaled job is done
	})
	d := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("replaying the job journal: %w", err)
	}
	return d, st.Close()
}

func (w *searchJobs) close() error {
	w.client.CloseIdleConnections()
	return errors.Join(w.srv.close(), os.RemoveAll(w.dir))
}
