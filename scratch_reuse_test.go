package sunmap_test

import (
	"context"
	"encoding/json"
	"testing"

	"sunmap"
	"sunmap/internal/search"
)

// randomAppSpec is search.RandomApp(seed, n) as an inline request app.
func randomAppSpec(seed int64, n int) sunmap.AppSpec {
	g := search.RandomApp(seed, n)
	a := sunmap.AppSpec{Label: g.Name()}
	for _, c := range g.Cores() {
		a.Cores = append(a.Cores, sunmap.CoreSpec{Name: c.Name, AreaMM2: c.AreaMM2})
	}
	for _, e := range g.Edges() {
		a.Flows = append(a.Flows, sunmap.FlowSpec{From: g.Core(e.From).Name, To: g.Core(e.To).Name, MBps: e.BandwidthMBps})
	}
	return a
}

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
		sel(randomAppSpec(1, 32), 1000),
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
	newSession := func(par int) *sunmap.Session {
		t.Helper()
		sess, err := sunmap.NewSession(sunmap.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	for _, par := range []int{1, 2} {
		shared := newSession(par)
		for i, req := range reqs {
			got := do(shared, req)
			if want := do(newSession(par), req); got != want {
				t.Errorf("parallelism %d, request %d: shared-session report differs from a fresh session's:\nshared: %s\nfresh:  %s", par, i, got, want)
			}
		}
	}
}
