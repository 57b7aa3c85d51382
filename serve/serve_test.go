package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sunmap"
	"sunmap/serve"
)

func newServer(t *testing.T, opts serve.Options, sessOpts ...sunmap.SessionOption) (*httptest.Server, *sunmap.Session) {
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
			t.Error(err)
		}
	})
	return srv, sess
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServeSelectMatchesInProcess is the acceptance criterion: a Request
// marshaled to JSON, POSTed to a sunmap serve test server, and decoded
// back as a Report selects the same topology as the equivalent in-process
// Session.Select call.
func TestServeSelectMatchesInProcess(t *testing.T) {
	srv, _ := newServer(t, serve.Options{})

	req := sunmap.Request{
		ID: "acceptance",
		Op: sunmap.OpSelect,
		Select: &sunmap.SelectRequest{
			App:     sunmap.AppSpec{Name: "vopd"},
			Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500},
		},
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "acceptance" || rep.Err() != nil {
		t.Fatalf("report: %+v", rep)
	}

	inProc, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want, err := inProc.Select(context.Background(), *req.Select)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Select.Topology != want.Topology {
		t.Errorf("served selection %q != in-process selection %q", rep.Select.Topology, want.Topology)
	}
	if rep.Select.Topology == "" {
		t.Error("no topology selected")
	}
	if len(rep.Select.Rows) != len(want.Rows) {
		t.Errorf("served %d rows, in-process %d", len(rep.Select.Rows), len(want.Rows))
	}
}

// TestServeFaultSweepMatchesInProcess is the fault-subsystem acceptance
// criterion's service half: a FaultSweep POSTed over the wire returns a
// report byte-identical to the in-process Session.FaultSweep call.
func TestServeFaultSweepMatchesInProcess(t *testing.T) {
	srv, _ := newServer(t, serve.Options{})

	req := sunmap.Request{
		ID: "fault",
		Op: sunmap.OpFaultSweep,
		FaultSweep: &sunmap.FaultSweepRequest{
			App:      sunmap.AppSpec{Name: "vopd"},
			Topology: "mesh-3x4",
			Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
			Fault:    sunmap.FaultSpec{K: 2, Elements: "both"},
		},
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fault" || rep.Err() != nil {
		t.Fatalf("report: %+v", rep)
	}
	if rep.FaultSweep == nil || rep.FaultSweep.Scenarios == 0 {
		t.Fatalf("empty fault report: %+v", rep.FaultSweep)
	}

	inProc, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want, err := inProc.FaultSweep(context.Background(), *req.FaultSweep)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := json.Marshal(rep.FaultSweep)
	local, _ := json.Marshal(want)
	if !bytes.Equal(served, local) {
		t.Errorf("served fault report differs from in-process:\n%s\n%s", served, local)
	}
}

func TestServeBatch(t *testing.T) {
	srv, sess := newServer(t, serve.Options{})
	batch := serve.BatchRequest{Requests: []sunmap.Request{
		{ID: "a", Op: sunmap.OpMap, Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
			Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		}},
		{ID: "b", Op: "frobnicate"},
		{ID: "c", Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
			Topology: "mesh-2x2", Rates: []float64{0.1},
			WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 500,
		}},
	}}
	blob, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, srv.URL+"/v1/batch", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != 3 {
		t.Fatalf("%d reports", len(resp.Reports))
	}
	if resp.Reports[0].ID != "a" || resp.Reports[0].Map == nil {
		t.Errorf("report a: %+v", resp.Reports[0])
	}
	if resp.Reports[1].ErrorKind != sunmap.ErrorKindBadRequest {
		t.Errorf("report b: %+v", resp.Reports[1])
	}
	if resp.Reports[2].Simulate == nil || len(resp.Reports[2].Simulate.Rows) != 1 {
		t.Errorf("report c: %+v", resp.Reports[2])
	}
	if resp.Cache.Misses == 0 {
		t.Errorf("cache stats not reported: %+v", resp.Cache)
	}
	if got := sess.CacheStats(); got.Misses == 0 {
		t.Errorf("session cache untouched: %+v", got)
	}
}

func TestServeRejectsBadBodies(t *testing.T) {
	srv, _ := newServer(t, serve.Options{MaxBatch: 2, MaxBodyBytes: 1 << 20})
	cases := []struct {
		name, path, body string
	}{
		{"garbage do", "/v1/do", "{"},
		{"invalid request", "/v1/do", `{"op":"nope"}`},
		{"garbage batch", "/v1/batch", "not json"},
		{"empty batch", "/v1/batch", `{"requests":[]}`},
		{"oversized batch", "/v1/batch", `{"requests":[{"op":"select"},{"op":"select"},{"op":"select"}]}`},
	}
	for _, tc := range cases {
		status, body := post(t, srv.URL+tc.path, []byte(tc.body))
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, status, body)
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}
	// A huge body is cut off at the transport boundary, not panicked on.
	big := fmt.Sprintf(`{"op":"select","id":%q}`, bytes.Repeat([]byte("x"), 2<<20))
	status, _ := post(t, srv.URL+"/v1/do", []byte(big))
	if status != http.StatusBadRequest {
		t.Errorf("oversized body: status %d", status)
	}
}

func TestServeHealthz(t *testing.T) {
	srv, _ := newServer(t, serve.Options{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestServePerRequestTimeout(t *testing.T) {
	srv, _ := newServer(t, serve.Options{RequestTimeout: time.Minute})
	// The request must reliably outlast its 1ms budget no matter how fast
	// the mapper gets, so pile a large Monte Carlo fault sweep (every
	// feasible candidate × 1<<17 scenarios) on top of the selection.
	req := sunmap.Request{
		Op:        sunmap.OpSelect,
		TimeoutMS: 1,
		Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
			Fault: &sunmap.FaultSpec{K: 3, Samples: 1 << 17},
		},
	}
	blob, _ := json.Marshal(req)
	status, body := post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorKind != sunmap.ErrorKindCanceled {
		t.Errorf("timed-out request kind %q (%+v)", rep.ErrorKind, rep)
	}
}

// TestServeTimeoutCappedByServer: a client cannot widen the operator's
// per-request budget — a huge timeout_ms is clamped to RequestTimeout.
func TestServeTimeoutCappedByServer(t *testing.T) {
	// A nanosecond budget is already expired when processing starts, so
	// the clamp must fire no matter how fast the mapper gets — the test
	// asserts the server-side cap wins, not any particular sweep runtime.
	srv, _ := newServer(t, serve.Options{RequestTimeout: time.Nanosecond})
	req := sunmap.Request{
		Op:        sunmap.OpSelect,
		TimeoutMS: 24 * 60 * 60 * 1000, // a day
		Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
		},
	}
	blob, _ := json.Marshal(req)
	start := time.Now()
	status, body := post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("request ran %v — server budget not enforced", elapsed)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorKind != sunmap.ErrorKindCanceled {
		t.Errorf("kind %q (%+v)", rep.ErrorKind, rep)
	}
}

// TestServeRejectsOverflowingTimeout: a timeout_ms too large for a
// time.Duration is a bad request on both the sync and the job route,
// not a request canceled the moment it starts.
func TestServeRejectsOverflowingTimeout(t *testing.T) {
	srv, _, _ := newJobServer(t, serve.Options{JobsDir: t.TempDir()})
	body := []byte(`{"op":"map","timeout_ms":9223372036855,"map":{"app":{"name":"dsp"},"topology":"mesh-2x3"}}`)
	for _, path := range []string{"/v1/do", "/v1/jobs"} {
		status, resp := post(t, srv.URL+path, body)
		if status != http.StatusBadRequest || !bytes.Contains(resp, []byte("timeout_ms")) {
			t.Errorf("%s: status %d, body %s; want 400 naming timeout_ms", path, status, resp)
		}
	}
}

// TestListenAndServeGracefulShutdown drives the real listener: the server
// answers, then shuts down cleanly when its context is cancelled.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve.ListenAndServe(ctx, "127.0.0.1:0", sess, serve.Options{}, time.Second)
	}()
	// The port is random; this test only checks the lifecycle: cancel must
	// end ListenAndServe without error within the drain budget.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ListenAndServe returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("ListenAndServe did not return after cancel")
	}
}

// TestServeSearchRoundTrip drives the search op over the wire: the
// discovered topology must come back with its structure and full
// evaluation, and — because the winner registers in the serving session's
// scope — a follow-up map request on the same server must resolve the
// discovered name.
func TestServeSearchRoundTrip(t *testing.T) {
	srv, _ := newServer(t, serve.Options{})

	req := sunmap.Request{
		ID: "discover",
		Op: sunmap.OpSearch,
		Search: &sunmap.SearchRequest{
			App:     sunmap.AppSpec{Name: "mpeg4"},
			Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 1000},
			Search:  sunmap.SearchOptions{Budget: 2000, Seed: 1},
		},
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "discover" || rep.Err() != nil {
		t.Fatalf("report: %+v", rep)
	}
	sr := rep.Search
	if sr == nil || sr.Topology == "" || sr.Best == nil || len(sr.BiLinks) == 0 {
		t.Fatalf("incomplete search report: %+v", sr)
	}
	if !sr.Best.Feasible {
		t.Fatalf("served search winner infeasible: %+v", sr.Best)
	}

	follow := sunmap.Request{
		ID: "follow",
		Op: sunmap.OpMap,
		Map: &sunmap.MapRequest{
			App:      sunmap.AppSpec{Name: "mpeg4"},
			Topology: sr.Topology,
			Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 1000},
		},
	}
	blob, err = json.Marshal(follow)
	if err != nil {
		t.Fatal(err)
	}
	status, body = post(t, srv.URL+"/v1/do", blob)
	if status != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", status, body)
	}
	frep, err := sunmap.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if frep.Err() != nil {
		t.Fatalf("follow-up map on %s failed: %v", sr.Topology, frep.Err())
	}
	if frep.Map.Topology != sr.Topology {
		t.Errorf("follow-up mapped %q, want %q", frep.Map.Topology, sr.Topology)
	}
}
