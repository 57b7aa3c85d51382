package sunmap_test

// End-to-end tests of the FaultSweep request kind and the reliability
// axis on Select/ParetoExplore — the Session surface of internal/fault.

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sunmap"
)

func faultSweepRequest() sunmap.FaultSweepRequest {
	return sunmap.FaultSweepRequest{
		App:      sunmap.AppSpec{Name: "vopd"},
		Topology: "mesh-3x4",
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
		Fault:    sunmap.FaultSpec{K: 1},
	}
}

// TestFaultSweepEndToEnd runs a FaultSweep through Session.Do and checks
// the report's internal consistency.
func TestFaultSweepEndToEnd(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	req := faultSweepRequest()
	rep := sess.Do(context.Background(), sunmap.Request{
		ID: "fs", Op: sunmap.OpFaultSweep, FaultSweep: &req,
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	fr := rep.FaultSweep
	if fr == nil {
		t.Fatal("no fault-sweep payload")
	}
	if fr.App != "vopd" || fr.Topology != "mesh-3x4" || fr.K != 1 || fr.Elements != "links" {
		t.Errorf("header wrong: %+v", fr)
	}
	if fr.Routing != "MP" {
		t.Errorf("degraded routing %q, want MP", fr.Routing)
	}
	if !fr.Exhaustive || fr.Scenarios != 17 { // 3x4 mesh: 17 channels
		t.Errorf("scenarios %d (exhaustive=%v), want 17 exhaustive", fr.Scenarios, fr.Exhaustive)
	}
	if fr.Survivability < 0 || fr.Survivability > 1 || fr.ConnectedFrac < fr.Survivability {
		t.Errorf("implausible survivability %g / connected %g", fr.Survivability, fr.ConnectedFrac)
	}
	if fr.BaselineMaxLoadMBps <= 0 || fr.WorstMaxLoadMBps < fr.BaselineMaxLoadMBps {
		t.Errorf("degradation inverted: baseline %g, worst %g", fr.BaselineMaxLoadMBps, fr.WorstMaxLoadMBps)
	}
	if fr.ExpectedMaxLoadMBps > fr.WorstMaxLoadMBps {
		t.Errorf("expected load %g above worst %g", fr.ExpectedMaxLoadMBps, fr.WorstMaxLoadMBps)
	}
	if len(fr.WorstLinks) == 0 {
		t.Error("no worst-case scenario identified")
	}
	if fr.Sim != nil {
		t.Error("sim report present without sim_rate")
	}
}

// TestFaultSweepSimInjection runs the optional cycle-accurate fault
// injection and checks the throughput split.
func TestFaultSweepSimInjection(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	req := faultSweepRequest()
	req.SimRate = 0.2
	req.SimCycle = 2000
	fr, err := sess.FaultSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Sim == nil {
		t.Fatal("no sim report despite sim_rate")
	}
	if fr.Sim.FaultCycle != 2000 || fr.Sim.Rate != 0.2 || !fr.Sim.Rerouted {
		t.Errorf("sim header wrong: %+v", fr.Sim)
	}
	if !reflect.DeepEqual(fr.Sim.FailedLinks, fr.WorstLinks) {
		t.Errorf("sim failed links %v != worst-case links %v", fr.Sim.FailedLinks, fr.WorstLinks)
	}
	if fr.Sim.PreFaultFPC <= 0 {
		t.Errorf("no pre-fault throughput: %+v", fr.Sim)
	}
	if fr.Sim.PostFaultFPC <= 0 {
		t.Errorf("degraded rerouting delivered nothing post-fault: %+v", fr.Sim)
	}
}

// TestFaultSweepDeterministicAcrossParallelism pins byte-identical
// reports for sequential and parallel sessions.
func TestFaultSweepDeterministicAcrossParallelism(t *testing.T) {
	req := faultSweepRequest()
	req.Fault.K = 2
	req.Fault.Elements = "both"
	var reports []*sunmap.FaultReport
	for _, par := range []int{1, 8} {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := sess.FaultSweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, fr)
	}
	a, _ := json.Marshal(reports[0])
	b, _ := json.Marshal(reports[1])
	if string(a) != string(b) {
		t.Errorf("reports differ across parallelism:\n%s\n%s", a, b)
	}
}

// TestFaultSweepSessionReusesSweeper checks FaultSweep sweeps on the
// session's warm sweepers: with the mapping already cached, a second
// sweep of the same shape allocates at least 5% fewer bytes than the
// first, which had to build its sweeper, evaluator, router and outcome
// buffers (about an eighth of the sweep's bytes). Sweeps that each
// build a fresh sweeper allocate the same bytes to within a few words.
func TestFaultSweepSessionReusesSweeper(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	req := faultSweepRequest()
	req.Fault.K = 2
	req.Fault.Elements = "both"
	ctx := context.Background()
	if _, err := sess.Map(ctx, sunmap.MapRequest{App: req.App, Topology: req.Topology, Mapping: req.Mapping}); err != nil {
		t.Fatal(err)
	}
	allocBytes := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := sess.FaultSweep(ctx, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first := allocBytes()
	if second := allocBytes(); second > first-first/20 {
		t.Errorf("second sweep allocated %d bytes, first %d: the session did not reuse its sweeper", second, first)
	}
}

// TestFaultAwareSelectSessionReusesSweeper is the select counterpart of
// TestFaultSweepSessionReusesSweeper: after a fault-free select has
// warmed the cache, a second fault-aware select allocates at least 5%
// fewer bytes than the first, because its survivability sweeps draw the
// sweepers the first one left on the session's free list.
func TestFaultAwareSelectSessionReusesSweeper(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	req := sunmap.SelectRequest{App: sunmap.AppSpec{Name: "vopd"}}
	ctx := context.Background()
	if _, err := sess.Select(ctx, req); err != nil {
		t.Fatal(err)
	}
	req.Fault = &sunmap.FaultSpec{K: 2, Elements: "both"}
	allocBytes := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := sess.Select(ctx, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first := allocBytes()
	if second := allocBytes(); second > first-first/20 {
		t.Errorf("second fault-aware select allocated %d bytes, first %d: the session did not reuse its sweepers", second, first)
	}
}

// TestFaultSweepValidation checks the bad-input paths classify as
// bad_request on the wire.
func TestFaultSweepValidation(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*sunmap.FaultSweepRequest){
		func(r *sunmap.FaultSweepRequest) { r.Fault.K = -1 },
		func(r *sunmap.FaultSweepRequest) { r.Fault.Elements = "gremlins" },
		func(r *sunmap.FaultSweepRequest) { r.Fault.K = 10000 },
		func(r *sunmap.FaultSweepRequest) { r.SimRate = 1.5 },
		func(r *sunmap.FaultSweepRequest) { r.SimRate = 0.1; r.SimCycle = -5 },
		func(r *sunmap.FaultSweepRequest) { r.SimRate = 0.1; r.SimCycle = 8500 },
		func(r *sunmap.FaultSweepRequest) { r.SimRate = 0.1; r.SimCycle = 500 },
		func(r *sunmap.FaultSweepRequest) { r.SimRate = 0.1; r.SimCycle = 1000 },
		func(r *sunmap.FaultSweepRequest) { r.Topology = "nope-7x7" },
	}
	for i, mutate := range cases {
		req := faultSweepRequest()
		mutate(&req)
		rep := sess.Do(context.Background(), sunmap.Request{Op: sunmap.OpFaultSweep, FaultSweep: &req})
		if rep.Error == "" {
			t.Errorf("case %d: bad request accepted", i)
			continue
		}
		if rep.ErrorKind != sunmap.ErrorKindBadRequest {
			t.Errorf("case %d: error kind %q, want bad_request (%s)", i, rep.ErrorKind, rep.Error)
		}
	}
}

// TestSelectWithFaultAxis checks the reliability axis reaches the wire:
// rows carry survivability only when a fault model is active, whether
// per-request or as the WithFault session default.
func TestSelectWithFaultAxis(t *testing.T) {
	plain, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sunmap.SelectRequest{
		App:     sunmap.AppSpec{Name: "vopd"},
		Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
	}
	rep, err := plain.Select(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Survivability != nil {
			t.Fatal("fault-free selection reports survivability")
		}
	}

	faulty, err := sunmap.NewSession(sunmap.WithFault(sunmap.FaultSpec{K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := faulty.Select(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Topology == "" {
		t.Fatal("no selection under fault model")
	}
	scored := 0
	for _, r := range rep2.Rows {
		if r.Survivability != nil {
			scored++
			if *r.Survivability < 0 || *r.Survivability > 1 {
				t.Errorf("%s: survivability %g outside [0,1]", r.Topology, *r.Survivability)
			}
		} else if r.Feasible {
			t.Errorf("%s: feasible row missing survivability", r.Topology)
		}
	}
	if scored == 0 {
		t.Fatal("no row carries survivability")
	}

	// The session default must be a valid spec.
	if _, err := sunmap.NewSession(sunmap.WithFault(sunmap.FaultSpec{Elements: "bogus"})); err == nil {
		t.Error("invalid WithFault spec accepted")
	}
}

// TestParetoWithFaultAxis checks survivability on Pareto rows.
func TestParetoWithFaultAxis(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.ParetoExplore(context.Background(), sunmap.ParetoRequest{
		App:      sunmap.AppSpec{Name: "vopd"},
		Topology: "mesh-3x4",
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
		Steps:    3,
		Fault:    &sunmap.FaultSpec{K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("no design points")
	}
	for _, p := range rep.Points {
		if p.Survivability == nil {
			t.Fatalf("point missing survivability: %+v", p)
		}
	}
}

// TestFaultSweepRequestStrictDecoding pins the wire contract of the new
// request kind: strict JSON decoding, op/payload matching, round trips.
func TestFaultSweepRequestStrictDecoding(t *testing.T) {
	good := `{"op":"fault-sweep","fault_sweep":{"app":{"name":"vopd"},"topology":"mesh-3x4","mapping":{"routing":"MP","capacity_mbps":500},"fault":{"k":2,"elements":"both","samples":64,"seed":9}}}`
	req, err := sunmap.ParseRequest([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if req.FaultSweep == nil || req.FaultSweep.Fault.K != 2 || req.FaultSweep.Fault.Elements != "both" {
		t.Fatalf("decoded request wrong: %+v", req.FaultSweep)
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sunmap.ParseRequest(blob); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}

	bad := []string{
		`{"op":"fault-sweep"}`, // missing payload
		`{"op":"select","fault_sweep":{"app":{"name":"vopd"},"topology":"mesh-3x4"}}`,  // op mismatch
		`{"op":"fault-sweep","fault_sweep":{"app":{"name":"vopd"},"unknown_field":1}}`, // strictness
		`{"op":"fault-sweep","fault_sweep":{"fault":{"k":"two"}}}`,                     // type error
	}
	for _, s := range bad {
		if _, err := sunmap.ParseRequest([]byte(s)); err == nil {
			t.Errorf("accepted %s", s)
		} else if !strings.Contains(err.Error(), "invalid request") && !errorsIsBadRequest(err) {
			t.Errorf("%s: error %v does not classify as bad request", s, err)
		}
	}
}

func errorsIsBadRequest(err error) bool {
	return err != nil && strings.Contains(err.Error(), sunmap.ErrBadRequest.Error())
}
