package sunmap_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"sunmap"
)

// admissionPeak fires n concurrent copies of req at sess and samples
// sess.Load() until every one has finished, returning the largest
// InFlight and Waiting seen.
func admissionPeak(t *testing.T, sess *sunmap.Session, req sunmap.Request, n int) (inFlight, waiting int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := sess.Do(context.Background(), req)
			errs[i] = rep.Err()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		ld := sess.Load()
		inFlight, waiting = max(inFlight, ld.InFlight), max(waiting, ld.Waiting)
		select {
		case <-done:
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s request %d: %v", req.Op, i, err)
				}
			}
			return inFlight, waiting
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// TestSimulateAndFaultSweepCountTowardAdmission pins that simulations
// and fault sweeps take their work's slots on the session limiter: 8
// concurrent requests on a parallelism-1 session never hold more than
// the one slot, and the rest visibly queue for it — the Waiting signal
// the serve layer sheds on. (A fan-out whose first worker ran without a
// slot read InFlight 0 and Waiting 0 here while using two cores.)
func TestSimulateAndFaultSweepCountTowardAdmission(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	simulate := sunmap.Request{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
		Topology: "mesh-4x4", Rates: []float64{0.1, 0.2}, Seed: 1,
		WarmupCycles: 100, MeasureCycles: 2000, DrainCycles: 2000,
	}}
	sweep := faultSweepRequest()
	sweep.Fault = sunmap.FaultSpec{K: 2}
	sweep.SimRate = 0.1
	faultSweep := sunmap.Request{Op: sunmap.OpFaultSweep, FaultSweep: &sweep}
	// Map the design once, so the concurrent sweeps hit the cache and
	// every slot they take is the sweep's own.
	if rep := sess.Do(context.Background(), faultSweep); rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	for _, req := range []sunmap.Request{simulate, faultSweep} {
		inFlight, waiting := admissionPeak(t, sess, req, 8)
		if inFlight > 1 {
			t.Errorf("%s: %d slots in flight on a parallelism-1 session", req.Op, inFlight)
		}
		if waiting < 1 {
			t.Errorf("%s: 8 concurrent requests never queued for the session's slot (peak in flight %d)", req.Op, inFlight)
		}
	}
}
