package sunmap_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"sunmap"
)

// TestRequestJSONRoundTrip: a Request survives marshal -> ParseRequest
// unchanged, for every op.
func TestRequestJSONRoundTrip(t *testing.T) {
	reqs := []sunmap.Request{
		{ID: "1", Op: sunmap.OpSelect, TimeoutMS: 5000, Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "vopd"},
			Mapping: sunmap.MapSpec{
				Routing: "MP", Objective: "delay", CapacityMBps: 500, Tech: "100nm",
			},
			Escalate: true,
			Synth:    &sunmap.SynthSpec{MaxRadix: 6, ClusterSizes: []int{2, 4}},
		}},
		{Op: sunmap.OpMap, Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{
				Label: "tiny",
				Cores: []sunmap.CoreSpec{{Name: "a", AreaMM2: 2, Soft: true, MinAspect: 0.5, MaxAspect: 2}},
				Flows: []sunmap.FlowSpec{{From: "a", To: "a", MBps: 1}},
			},
			Topology: "mesh-2x2",
		}},
		{Op: sunmap.OpRoutingSweep, RoutingSweep: &sunmap.SweepRequest{
			App:      sunmap.AppSpec{Text: "app t\ncore a area=1\ncore b area=1\nflow a -> b 10\n"},
			Topology: "mesh-1x2",
		}},
		{Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{
			App: sunmap.AppSpec{Name: "mpeg4"}, Topology: "mesh-3x4",
			Mapping: sunmap.MapSpec{Routing: "SM", Objective: "weighted", WeightDelay: 0.5, WeightArea: 0.3, WeightPower: 0.2},
			Steps:   3,
		}},
		{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
			Topology: "clos-m4n4r4", Pattern: "hotspot", HotspotNode: 3, HotspotFrac: 0.4,
			Rates: []float64{0.1, 0.2}, PacketFlits: 8, Seed: 42,
		}},
		{Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{
			App: sunmap.AppSpec{Name: "dsp"}, Topology: "butterfly-3ary2fly",
		}},
	}
	for _, req := range reqs {
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sunmap.ParseRequest(blob)
		if err != nil {
			t.Fatalf("op %s: %v\n%s", req.Op, err, blob)
		}
		if !reflect.DeepEqual(*back, req) {
			t.Errorf("op %s: round trip changed the request:\nin:  %+v\nout: %+v", req.Op, req, *back)
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"garbage", "{"},
		{"unknown field", `{"op":"select","select":{"app":{"name":"vopd"}},"bogus":1}`},
		{"unknown op", `{"op":"frobnicate","select":{"app":{"name":"vopd"}}}`},
		{"no payload", `{"op":"select"}`},
		{"mismatched payload", `{"op":"select","map":{"app":{"name":"vopd"},"topology":"mesh-2x2"}}`},
		{"two payloads", `{"op":"select","select":{"app":{"name":"vopd"}},"map":{"app":{"name":"vopd"},"topology":"mesh-2x2"}}`},
		{"negative timeout", `{"op":"select","timeout_ms":-1,"select":{"app":{"name":"vopd"}}}`},
		{"overflowing timeout", `{"op":"map","timeout_ms":9223372036855,"map":{"app":{"name":"dsp"},"topology":"mesh-2x3"}}`},
		{"trailing data", `{"op":"select","select":{"app":{"name":"vopd"}}}{"op":"map"}`},
	}
	for _, tc := range cases {
		if _, err := sunmap.ParseRequest([]byte(tc.body)); !errors.Is(err, sunmap.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// TestOversizedTopologyRejected is the regression test for a 69-byte
// request that killed the process: a map onto mesh-1000x1000 built a
// terminals² min-hop table and died with a fatal out-of-memory error,
// which no recover can catch. Every family now shares one 4096-terminal
// bound, so each such name is a bad request.
func TestOversizedTopologyRejected(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"mesh-1000x1000", "hypercube-16", "star-1000000", "clos-m2n1000r1000"} {
		body := `{"op":"map","map":{"app":{"name":"dsp"},"topology":"` + topo + `"}}`
		req, err := sunmap.ParseRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		rep := sess.Do(context.Background(), *req)
		if rep.ErrorKind != sunmap.ErrorKindBadRequest {
			t.Errorf("%s: error kind %q, want bad_request (%s)", topo, rep.ErrorKind, rep.Error)
		}
	}
}

// TestWeightedObjectiveRejectsUnusableWeights: a negative, infinite or
// NaN weight, or all-zero weights, would have the mapper minimize an
// unbounded or empty objective, so the request is a bad request.
func TestWeightedObjectiveRejectsUnusableWeights(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mapReq := func(d, a, p float64) sunmap.Request {
		return sunmap.Request{Op: sunmap.OpMap, Map: &sunmap.MapRequest{
			App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
			Mapping: sunmap.MapSpec{Objective: "weighted", WeightDelay: d, WeightArea: a, WeightPower: p},
		}}
	}
	for _, w := range [][3]float64{
		{-1, 1, 1},
		{1, -0.5, 0},
		{0, 0, 0},
		{math.Inf(1), 1, 1},
		{1, math.Inf(-1), 1},
		{1, 1, math.NaN()},
	} {
		rep := sess.Do(context.Background(), mapReq(w[0], w[1], w[2]))
		if rep.ErrorKind != sunmap.ErrorKindBadRequest {
			t.Errorf("weights %v: error kind %q, want bad_request (%s)", w, rep.ErrorKind, rep.Error)
		}
	}
	for _, w := range [][3]float64{{1, 1, 1}, {0, 0, 2}} {
		if rep := sess.Do(context.Background(), mapReq(w[0], w[1], w[2])); rep.Error != "" {
			t.Errorf("weights %v: %s", w, rep.Error)
		}
	}
}

// TestReportJSONRoundTrip: a Report (including an error report) survives
// marshal -> ParseReport unchanged.
func TestReportJSONRoundTrip(t *testing.T) {
	reports := []sunmap.Report{
		{ID: "x", Op: sunmap.OpSelect, Select: &sunmap.SelectReport{
			App: "vopd", Topology: "butterfly-4ary2fly", RoutingUsed: "MP",
			Candidates: 9, Feasible: 4,
			Rows: []sunmap.TopologyRow{{Topology: "mesh-3x4", Kind: "mesh", AvgHops: 2.5, Feasible: true}},
			Best: &sunmap.DesignReport{
				Topology: "butterfly-4ary2fly", AvgHops: 3, Feasible: true,
				Assign:    []sunmap.AssignRow{{Core: "vld", Terminal: 2, Router: 0}},
				Floorplan: &sunmap.FloorplanReport{ChipWMM: 7, ChipHMM: 8, Blocks: []sunmap.BlockRow{{Name: "vld", W: 1, H: 2}}},
			},
		}},
		{Op: sunmap.OpSimulate, Error: "boom", ErrorKind: sunmap.ErrorKindInternal},
	}
	for _, rep := range reports {
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sunmap.ParseReport(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*back, rep) {
			t.Errorf("round trip changed the report:\nin:  %+v\nout: %+v", rep, *back)
		}
	}
}

// TestGenerateReportWriteToRejectsTraversal: file names in a Report are
// wire data and must not escape the target directory.
func TestGenerateReportWriteToRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../escape.txt", "/abs.txt", `a\b.txt`, "sub/dir.txt", ".."} {
		rep := sunmap.GenerateReport{Files: []sunmap.GeneratedFile{{Name: name, Content: "x"}}}
		if err := rep.WriteTo(dir); err == nil {
			t.Errorf("WriteTo accepted unsafe name %q", name)
		}
	}
	ok := sunmap.GenerateReport{Files: []sunmap.GeneratedFile{{Name: "top.cpp", Content: "x"}}}
	if err := ok.WriteTo(dir); err != nil {
		t.Errorf("WriteTo rejected a plain name: %v", err)
	}
}

func TestReportErr(t *testing.T) {
	ok := sunmap.Report{Op: sunmap.OpSelect}
	if err := ok.Err(); err != nil {
		t.Errorf("successful report Err() = %v", err)
	}
	inf := sunmap.Report{Op: sunmap.OpSelect, Error: "nothing fits", ErrorKind: sunmap.ErrorKindInfeasible}
	if err := inf.Err(); !errors.Is(err, sunmap.ErrInfeasible) {
		t.Errorf("infeasible report Err() = %v, want ErrInfeasible", err)
	}
	bad := sunmap.Report{Op: sunmap.OpSelect, Error: "nope", ErrorKind: sunmap.ErrorKindBadRequest}
	if err := bad.Err(); !errors.Is(err, sunmap.ErrBadRequest) {
		t.Errorf("bad-request report Err() = %v, want ErrBadRequest", err)
	}
}
