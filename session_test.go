package sunmap_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"sunmap"
)

// batchRequests is a mixed workload exercising every deterministic op.
func batchRequests() []sunmap.Request {
	dsp := sunmap.AppSpec{Name: "dsp"}
	return []sunmap.Request{
		{ID: "sel", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: dsp, Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		}},
		{ID: "map", Op: sunmap.OpMap, Map: &sunmap.MapRequest{
			App: dsp, Topology: "mesh-2x3", Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		}},
		{ID: "sweep", Op: sunmap.OpRoutingSweep, RoutingSweep: &sunmap.SweepRequest{
			App: dsp, Topology: "mesh-2x3", Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		}},
		{ID: "pareto", Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{
			App: dsp, Topology: "mesh-2x3", Mapping: sunmap.MapSpec{Routing: "SM", CapacityMBps: 1000}, Steps: 2,
		}},
		{ID: "sim", Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
			Topology: "mesh-2x2", Rates: []float64{0.1, 0.2}, Seed: 3,
			WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 500,
		}},
		{ID: "gen", Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{
			App: dsp, Topology: "mesh-2x3", Mapping: sunmap.MapSpec{CapacityMBps: 1000},
		}},
		{ID: "bad", Op: "nonsense"},
		{ID: "sel-fault", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: dsp, Mapping: sunmap.MapSpec{CapacityMBps: 1000}, Fault: &sunmap.FaultSpec{K: 1},
		}},
		{ID: "pareto-fault", Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{
			App: dsp, Topology: "mesh-2x3", Mapping: sunmap.MapSpec{CapacityMBps: 1000}, Steps: 3,
			Fault: &sunmap.FaultSpec{K: 1},
		}},
		{ID: "search-fault", Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
			App: dsp, Mapping: sunmap.MapSpec{CapacityMBps: 1000},
			Search: sunmap.SearchOptions{Budget: 400, Seed: 1}, Fault: &sunmap.FaultSpec{K: 1},
		}},
	}
}

// TestBatchDeterministicAcrossParallelism is the satellite determinism
// guarantee: the marshaled reports of a Batch are byte-identical between
// the sequential path and the default parallel pool.
func TestBatchDeterministicAcrossParallelism(t *testing.T) {
	var blobs [][]byte
	for _, par := range []int{1, 0} {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := sess.Batch(context.Background(), batchRequests())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(reports) != len(batchRequests()) {
			t.Fatalf("parallelism %d: %d reports", par, len(reports))
		}
		blob, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Errorf("reports differ between sequential and parallel batches:\nseq: %s\npar: %s", blobs[0], blobs[1])
	}
}

func TestBatchResultsAndIsolation(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	reqs := batchRequests()
	reports, err := sess.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.ID != reqs[i].ID {
			t.Errorf("report %d: ID %q, want %q (order not preserved)", i, rep.ID, reqs[i].ID)
		}
	}
	if topo := reports[0].Select.Topology; !strings.HasPrefix(topo, "butterfly") {
		t.Errorf("dsp selection chose %q, want a butterfly (Section 6.4)", topo)
	}
	if reports[1].Map == nil || reports[1].Map.Topology != "mesh-2x3" {
		t.Errorf("map report: %+v", reports[1].Map)
	}
	if len(reports[2].RoutingSweep.Rows) != 4 {
		t.Errorf("routing sweep has %d rows", len(reports[2].RoutingSweep.Rows))
	}
	if len(reports[3].Pareto.Points) == 0 {
		t.Error("pareto explore returned no points")
	}
	if len(reports[4].Simulate.Rows) != 2 {
		t.Errorf("simulate returned %d rows", len(reports[4].Simulate.Rows))
	}
	if len(reports[5].Generate.Files) < 5 {
		t.Errorf("generate returned %d files", len(reports[5].Generate.Files))
	}
	// The malformed request is isolated: an error report, not a panic or a
	// batch failure.
	if reports[6].ErrorKind != sunmap.ErrorKindBadRequest {
		t.Errorf("bad request report: %+v", reports[6])
	}
	if err := reports[6].Err(); !errors.Is(err, sunmap.ErrBadRequest) {
		t.Errorf("reconstructed error %v does not unwrap to ErrBadRequest", err)
	}
	// The fault-aware requests carry the reliability axis.
	scored := 0
	if rep := reports[7].Select; rep != nil {
		for _, r := range rep.Rows {
			if r.Survivability != nil {
				scored++
			}
		}
	}
	if scored == 0 {
		t.Errorf("fault-aware select report has no scored row: %+v", reports[7])
	}
	if rep := reports[8].Pareto; rep == nil || len(rep.Points) == 0 || rep.Points[0].Survivability == nil {
		t.Errorf("fault-aware pareto report: %+v", reports[8])
	}
	if rep := reports[9].Search; rep == nil || rep.Survivability == nil || *rep.Survivability < 0 || *rep.Survivability > 1 {
		t.Errorf("fault-aware search report: %+v", reports[9])
	}
}

// TestBatchCancellationAbortsInFlight is the satellite cancellation
// guarantee: cancelling mid-batch aborts evaluations already running on
// the engine pool and marks every unfinished request canceled.
func TestBatchCancellationAbortsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sess, err := sunmap.NewSession(
		sunmap.WithParallelism(2),
		// Cancel as soon as the first candidate of the first select
		// finishes: both selects are then mid-sweep.
		sunmap.WithProgress(func(sunmap.ProgressEvent) { once.Do(cancel) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sunmap.Request{
		{ID: "a", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "vopd"}, Mapping: sunmap.MapSpec{CapacityMBps: 500},
		}},
		{ID: "b", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
		}},
	}
	start := time.Now()
	reports, err := sess.Batch(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Batch err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v — in-flight work not aborted", elapsed)
	}
	if len(reports) != len(reqs) {
		t.Fatalf("%d reports", len(reports))
	}
	for i, rep := range reports {
		if rep.ErrorKind != sunmap.ErrorKindCanceled {
			t.Errorf("report %d: kind %q, want canceled (%+v)", i, rep.ErrorKind, rep)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// The deadline is already expired when Do dispatches, so the timeout
	// fires deterministically — a warm netproc selection finishes in
	// under a millisecond, which a small TimeoutMS would race (and
	// sometimes lose to).
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	rep := sess.Do(ctx, sunmap.Request{
		Op:        sunmap.OpSelect,
		TimeoutMS: 1,
		Select: &sunmap.SelectRequest{
			App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{},
		},
	})
	if rep.ErrorKind != sunmap.ErrorKindCanceled {
		t.Errorf("timed-out request: kind %q (%+v)", rep.ErrorKind, rep)
	}
}

// TestSessionSharedCache shows the session cache working across methods:
// a Select warms the cache, the equivalent Map replays from it.
func TestSessionSharedCache(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := sess.Select(ctx, sunmap.SelectRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	des, err := sess.Map(ctx, sunmap.MapRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Topology: rep.Topology,
		Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sess.CacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("Map after Select missed the session cache: %+v -> %+v", before, after)
	}
	if des.AvgHops != rep.Best.AvgHops || des.PowerMW != rep.Best.PowerMW {
		t.Errorf("cached replay differs: %+v vs %+v", des, rep.Best)
	}
}

func TestSessionOptionValidation(t *testing.T) {
	if _, err := sunmap.NewSession(sunmap.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// TestInlineGraphSources checks the three AppSpec sources agree.
func TestInlineGraphSources(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	text := "app tiny\ncore a area=2\ncore b area=3\nflow a -> b 100\n"
	structured := sunmap.AppSpec{
		Label: "tiny",
		Cores: []sunmap.CoreSpec{{Name: "a", AreaMM2: 2}, {Name: "b", AreaMM2: 3}},
		Flows: []sunmap.FlowSpec{{From: "a", To: "b", MBps: 100}},
	}
	fromText, err := sess.Map(ctx, sunmap.MapRequest{
		App: sunmap.AppSpec{Text: text}, Topology: "mesh-1x2",
		Mapping: sunmap.MapSpec{CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	fromStruct, err := sess.Map(ctx, sunmap.MapRequest{
		App: structured, Topology: "mesh-1x2",
		Mapping: sunmap.MapSpec{CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromText.AvgHops != 2 || fromStruct.AvgHops != fromText.AvgHops {
		t.Errorf("inline sources disagree: text %+v vs structured %+v", fromText, fromStruct)
	}
}
