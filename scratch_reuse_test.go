package sunmap_test

import (
	"context"
	"encoding/json"
	"testing"

	"sunmap"
	"sunmap/internal/search"
)

// TestSessionScratchReuseInvisible pins that the mapping scratch a
// Session keeps across requests never reaches a result. One session runs
// a 32-core random selection, whose large topologies grow every scratch
// set, and then the vopd and mpeg4 selections with escalation (mpeg4
// climbs to split routing). Each report must be byte-identical to the
// same request on a fresh session, at parallelism 1 and 2.
func TestSessionScratchReuseInvisible(t *testing.T) {
	sel := func(app sunmap.AppSpec, capMBps float64) sunmap.Request {
		return sunmap.Request{Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App:      app,
			Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: capMBps},
			Escalate: true,
		}}
	}
	reqs := []sunmap.Request{
		sel(inlineApp(search.RandomApp(1, 32)), 1000),
		sel(sunmap.AppSpec{Name: "vopd"}, 500),
		sel(sunmap.AppSpec{Name: "mpeg4"}, 500),
	}
	ctx := context.Background()
	do := func(sess *sunmap.Session, req sunmap.Request) string {
		t.Helper()
		rep := sess.Do(ctx, req)
		if rep.Error != "" {
			t.Fatalf("%s: %s", rep.Op, rep.Error)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	for _, par := range []int{1, 2} {
		shared := newSession(t, sunmap.WithParallelism(par))
		for i, req := range reqs {
			got := do(shared, req)
			if want := do(newSession(t, sunmap.WithParallelism(par)), req); got != want {
				t.Errorf("parallelism %d, request %d: shared-session report differs from a fresh session's:\nshared: %s\nfresh:  %s", par, i, got, want)
			}
		}
	}
}
