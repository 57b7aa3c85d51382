package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"sunmap"
	"sunmap/serve"
	"sunmap/serve/client"
)

// newJobServer builds the full lifecycle-owning Server (durable job
// store, cache persistence) behind an httptest listener.
func newJobServer(t *testing.T, opts serve.Options, sessOpts ...sunmap.SessionOption) (*httptest.Server, *serve.Server, *sunmap.Session) {
	t.Helper()
	sess, err := sunmap.NewSession(sessOpts...)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := serve.NewServer(context.Background(), sess, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := sv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, sv, sess
}

// TestServeJobLifecycle drives the async path end to end over the wire:
// submit returns 202 with a queued/running snapshot, Wait observes the
// terminal state, and the fetched result equals the same request run
// synchronously in-process.
func TestServeJobLifecycle(t *testing.T) {
	srv, _, _ := newJobServer(t, serve.Options{JobsDir: t.TempDir()})
	cl := client.New(srv.URL, client.Options{Seed: 1})
	ctx := context.Background()

	req := sunmap.Request{
		ID: "async-map",
		Op: sunmap.OpMap,
		Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
			Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: 1000},
		},
	}
	jb, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if jb.ID == "" || jb.State.Terminal() {
		t.Fatalf("submitted job snapshot: %+v", jb)
	}
	list, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list {
		found = found || j.ID == jb.ID
	}
	if !found {
		t.Fatalf("job %s missing from list %+v", jb.ID, list)
	}

	fin, err := cl.Wait(ctx, jb.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}
	rep, err := cl.Result(ctx, jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "async-map" || rep.Err() != nil || rep.Map == nil {
		t.Fatalf("job report: %+v", rep)
	}

	inProc, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want := inProc.Do(ctx, req)
	got, _ := json.Marshal(rep)
	exp, _ := json.Marshal(want)
	if !bytes.Equal(got, exp) {
		t.Errorf("async report differs from sync:\n%s\n%s", got, exp)
	}
}

// TestServeJobErrors covers the failure statuses of the job API: unknown
// IDs are 404 on every job route, results of unfinished jobs are 409
// with a Retry-After hint, cancelled jobs are 410, and a structurally
// invalid submission never enters the store.
func TestServeJobErrors(t *testing.T) {
	srv, sv, _ := newJobServer(t, serve.Options{JobsDir: t.TempDir()})

	for _, path := range []string{"/v1/jobs/j-999", "/v1/jobs/j-999/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	status, body := post(t, srv.URL+"/v1/jobs", []byte(`{"op":"frobnicate"}`))
	if status != http.StatusBadRequest {
		t.Errorf("invalid submission: status %d, body %s", status, body)
	}
	if sv.Handler() == nil {
		t.Fatal("no handler")
	}

	// A search job is slow enough to catch mid-flight: its result must be
	// 409 + Retry-After while running, 410 after cancellation.
	blob, _ := json.Marshal(sunmap.Request{
		Op: sunmap.OpSearch,
		Search: &sunmap.SearchRequest{
			App:     sunmap.AppSpec{Name: "mpeg4"},
			Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: 1000},
			Search:  sunmap.SearchOptions{Budget: 200000, Seed: 3},
		},
	})
	status, body = post(t, srv.URL+"/v1/jobs", blob)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	var jb struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &jb); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") == "" {
		t.Errorf("running result: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+jb.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	cl := client.New(srv.URL, client.Options{Seed: 1})
	fin, err := cl.Wait(context.Background(), jb.ID, 20*time.Millisecond)
	if err != nil || fin.State != "cancelled" {
		t.Fatalf("cancelled job settled as %+v (%v)", fin, err)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("cancelled result: status %d", resp.StatusCode)
	}
}

// TestServeSheddingAndClientBackoff is the overload acceptance
// criterion: with the evaluation pool saturated past MaxQueueDepth,
// synchronous requests are shed with 429 + Retry-After — and a
// serve/client caller rides its backoff through the congestion and
// completes once capacity frees up.
func TestServeSheddingAndClientBackoff(t *testing.T) {
	srv, _, sess := newJobServer(t, serve.Options{
		MaxQueueDepth:  1,
		RequestTimeout: 1500 * time.Millisecond,
	}, sunmap.WithParallelism(1))

	// Saturate: slow Monte Carlo fault sweeps pile onto the single
	// evaluation slot until their 1.5s budgets expire.
	slow, _ := json.Marshal(sunmap.Request{
		Op: sunmap.OpSelect,
		Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
			Fault: &sunmap.FaultSpec{K: 3, Samples: 1 << 17},
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/do", "application/json", bytes.NewReader(slow))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	defer wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for sess.Load().Waiting < 1 {
		if time.Now().After(deadline) {
			t.Fatal("pool never saturated")
		}
		time.Sleep(time.Millisecond)
	}

	quick, _ := json.Marshal(sunmap.Request{
		ID: "shed-me",
		Op: sunmap.OpMap,
		Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
			Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/do", "application/json", bytes.NewReader(quick))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q", resp.Header.Get("Retry-After"))
	}

	// The retrying client absorbs the sheds and completes the same
	// request once the slow work drains.
	cl := client.New(srv.URL, client.Options{
		Seed: 7, MaxAttempts: 40,
		BaseBackoff: 50 * time.Millisecond, MaxBackoff: 500 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var req sunmap.Request
	if err := json.Unmarshal(quick, &req); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Do(ctx, req)
	if err != nil {
		t.Fatalf("client never got through the sheds: %v", err)
	}
	if rep.Err() != nil || rep.Map == nil {
		t.Fatalf("post-congestion report: %+v", rep)
	}

	// The batch health envelope reports the sheds.
	wg.Wait()
	batch, _ := json.Marshal(serve.BatchRequest{Requests: []sunmap.Request{req}})
	status, body := post(t, srv.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Serve == nil || br.Serve.Shed == 0 {
		t.Errorf("shed count not surfaced: %+v", br.Serve)
	}
	if br.Serve != nil && br.Serve.Load.Capacity != 1 {
		t.Errorf("load capacity %d, want 1", br.Serve.Load.Capacity)
	}
}

// TestServeShedsSimulateFlood pins that simulations count toward
// admission: on a parallelism-1 server with MaxQueueDepth 1, simulate
// requests queue on the evaluation slot like any evaluation, so once one
// is queued a flood of further simulate requests on /v1/do is shed with
// 429 + Retry-After. (A simulation whose first worker ran without a slot
// never queued, and nothing was shed.)
func TestServeShedsSimulateFlood(t *testing.T) {
	srv, _, sess := newJobServer(t, serve.Options{MaxQueueDepth: 1}, sunmap.WithParallelism(1))
	body, _ := json.Marshal(sunmap.Request{
		Op: sunmap.OpSimulate,
		Simulate: &sunmap.SimRequest{
			Topology: "mesh-4x4", Rates: []float64{0.1, 0.2, 0.3}, Seed: 1,
			WarmupCycles: 100, MeasureCycles: 4000, DrainCycles: 4000,
		},
	})
	send := func() (int, string) {
		resp, err := http.Post(srv.URL+"/v1/do", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); send() }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for sess.Load().Waiting < 1 {
		if time.Now().After(deadline) {
			t.Fatal("simulate requests never queued for the evaluation slot")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const flood = 8
	codes := make([]int, flood)
	retry := make([]string, flood)
	for i := range flood {
		wg.Add(1)
		go func() { defer wg.Done(); codes[i], retry[i] = send() }()
	}
	wg.Wait()
	shed := 0
	for i, code := range codes {
		switch code {
		case http.StatusTooManyRequests:
			shed++
			if ra, err := strconv.Atoi(retry[i]); err != nil || ra < 1 {
				t.Errorf("429 with Retry-After %q", retry[i])
			}
		case http.StatusOK:
		default:
			t.Errorf("flood request %d: status %d", i, code)
		}
	}
	if shed == 0 {
		t.Errorf("no simulate request of %d was shed behind a queued one", flood)
	}
}

// TestServeBatchTimeoutClampEdges pins the clamp's boundary behavior:
// negative budgets pass through to validation (bad_request, not
// silently repaired), a budget exactly at the server default is kept,
// and a budget above it is clamped down so the batch still returns
// promptly.
func TestServeBatchTimeoutClampEdges(t *testing.T) {
	srv, _ := newServer(t, serve.Options{RequestTimeout: 50 * time.Millisecond})
	slowSel := &sunmap.SelectRequest{
		App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
		Fault: &sunmap.FaultSpec{K: 3, Samples: 1 << 17},
	}
	batch := serve.BatchRequest{Requests: []sunmap.Request{
		{ID: "neg", Op: sunmap.OpSelect, TimeoutMS: -5, Select: slowSel},
		{ID: "at-def", Op: sunmap.OpSelect, TimeoutMS: 50, Select: slowSel},
		{ID: "huge", Op: sunmap.OpSelect, TimeoutMS: 24 * 60 * 60 * 1000, Select: slowSel},
	}}
	blob, _ := json.Marshal(batch)
	start := time.Now()
	status, body := post(t, srv.URL+"/v1/batch", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("batch ran %v — clamp did not bound the huge budget", elapsed)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != 3 {
		t.Fatalf("%d reports", len(resp.Reports))
	}
	if resp.Reports[0].ErrorKind != sunmap.ErrorKindBadRequest {
		t.Errorf("negative timeout report: %+v", resp.Reports[0])
	}
	for _, i := range []int{1, 2} {
		if resp.Reports[i].ErrorKind != sunmap.ErrorKindCanceled {
			t.Errorf("report %s: kind %q, want canceled", resp.Reports[i].ID, resp.Reports[i].ErrorKind)
		}
	}
}

// TestServeBodySizeCapExact pins readBody's boundary: a body of exactly
// MaxBodyBytes is processed, one byte more is rejected as oversized.
func TestServeBodySizeCapExact(t *testing.T) {
	const capBytes = 512
	srv, _ := newServer(t, serve.Options{MaxBodyBytes: capBytes})
	mk := func(pad int) []byte {
		req := sunmap.Request{
			ID: string(bytes.Repeat([]byte("x"), pad)),
			Op: sunmap.OpMap,
			Map: &sunmap.MapRequest{
				App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
				Mapping: sunmap.MapSpec{CapacityMBps: 1000},
			},
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	// One pad byte adds one body byte, but pad 0 drops the whole
	// omitempty id field — so calibrate against a one-byte pad.
	base := len(mk(1)) - 1
	exact := mk(capBytes - base)
	if len(exact) != capBytes {
		t.Fatalf("padded body is %d bytes, want %d", len(exact), capBytes)
	}
	status, body := post(t, srv.URL+"/v1/do", exact)
	if status != http.StatusOK {
		t.Errorf("exact-cap body: status %d, body %s", status, body)
	}
	over := mk(capBytes - base + 1)
	status, body = post(t, srv.URL+"/v1/do", over)
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("exceeds")) {
		t.Errorf("cap+1 body: status %d, body %s", status, body)
	}
}
