package sunmap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"sunmap"
)

func searchReq(budget int) sunmap.SearchRequest {
	return sunmap.SearchRequest{
		App:     sunmap.AppSpec{Name: "mpeg4"},
		Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 1000},
		Search:  sunmap.SearchOptions{Budget: budget, Seed: 1},
	}
}

// TestSearchIdenticalAcrossParallelism is the determinism acceptance
// criterion at the wire level: the marshaled SearchReport must be
// byte-identical at parallelism 1, 4 and GOMAXPROCS — same topology name,
// same structure, same costs, same statistics.
func TestSearchIdenticalAcrossParallelism(t *testing.T) {
	var ref []byte
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Search(context.Background(), searchReq(6000))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
			continue
		}
		if !bytes.Equal(ref, blob) {
			t.Errorf("parallelism %d report differs:\nwant %s\ngot  %s", p, ref, blob)
		}
	}
}

// TestSearchScopeIsolation pins where synthesized and discovered names
// live, for every way one is created: in the owning session's scope —
// resolvable by that session's follow-up requests, invisible to other
// sessions and to TopologyByName, so a serve process can neither leak
// names nor let tenants collide on them.
func TestSearchScopeIsolation(t *testing.T) {
	ctx := context.Background()
	mapping := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 700}
	// selectSynth runs a synthesis-enabled mpeg4 selection, where a
	// synthesized cluster topology wins at 700 MB/s.
	selectSynth := func(t *testing.T, sess *sunmap.Session, req sunmap.SelectRequest) *sunmap.SelectReport {
		t.Helper()
		req.App, req.Mapping = sunmap.AppSpec{Name: "mpeg4"}, mapping
		rep, err := sess.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Synthesized == 0 {
			t.Fatalf("selection synthesized no candidates: %+v", rep)
		}
		return rep
	}
	synthRow := func(t *testing.T, rep *sunmap.SelectReport, winner bool) string {
		t.Helper()
		for _, r := range rep.Rows {
			if r.Kind == "synth" && (r.Topology == rep.Topology) == winner {
				return r.Topology
			}
		}
		t.Fatalf("no synth row (winner %v) in %+v", winner, rep.Rows)
		return ""
	}
	cases := []struct {
		name string
		// create makes a name in sess's scope and returns it.
		create func(t *testing.T) (*sunmap.Session, string)
	}{
		{"search winner", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t)
			rep, err := sess.Search(ctx, searchReq(2000))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Topology == "" || rep.Best == nil || rep.Best.Topology != rep.Topology {
				t.Fatalf("inconsistent report: %+v", rep)
			}
			return sess, rep.Topology
		}},
		{"WithSynth select winner", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t, sunmap.WithSynth(sunmap.SynthOptions{}))
			return sess, synthRow(t, selectSynth(t, sess, sunmap.SelectRequest{}), true)
		}},
		{"WithSynth select losing row", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t, sunmap.WithSynth(sunmap.SynthOptions{}))
			return sess, synthRow(t, selectSynth(t, sess, sunmap.SelectRequest{}), false)
		}},
		{"request-level synth select", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t)
			return sess, synthRow(t, selectSynth(t, sess, sunmap.SelectRequest{Synth: &sunmap.SynthSpec{}}), true)
		}},
		{"generate without topology", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t, sunmap.WithSynth(sunmap.SynthOptions{}))
			rep, err := sess.Generate(ctx, sunmap.GenerateRequest{App: sunmap.AppSpec{Name: "mpeg4"}, Mapping: mapping})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(rep.Topology, "synth-") {
				t.Fatalf("generated %q, want a synthesized winner", rep.Topology)
			}
			return sess, rep.Topology
		}},
		{"SynthCandidates", func(t *testing.T) (*sunmap.Session, string) {
			sess := newSession(t)
			app, err := sunmap.AppByName("mpeg4")
			if err != nil {
				t.Fatal(err)
			}
			cands, err := sess.SynthCandidates(app, sunmap.SynthOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return sess, cands[len(cands)-1].Name()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, name := tc.create(t)
			req := sunmap.MapRequest{App: sunmap.AppSpec{Name: "mpeg4"}, Topology: name, Mapping: mapping}

			// The owning session resolves the name for follow-up operations.
			des, err := sess.Map(ctx, req)
			if err != nil {
				t.Fatalf("owning session cannot map onto %s: %v", name, err)
			}
			if des.Topology != name {
				t.Errorf("mapped %q, want %q", des.Topology, name)
			}

			// Neither the library grammar nor another session knows it.
			if _, err := sunmap.TopologyByName(name); !errors.Is(err, sunmap.ErrUnknownTopology) {
				t.Errorf("TopologyByName(%q) = %v, want ErrUnknownTopology", name, err)
			}
			if _, err := newSession(t).Map(ctx, req); !errors.Is(err, sunmap.ErrUnknownTopology) {
				t.Errorf("foreign session resolved %q: %v", name, err)
			}
		})
	}
}

// TestSearchErrorClassification pins the wire-level error kinds: bad
// options are bad requests, and Do must carry the kind.
func TestSearchErrorClassification(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	req := searchReq(100)
	req.Search.MaxRadix = 1
	if _, err := sess.Search(context.Background(), req); !errors.Is(err, sunmap.ErrBadRequest) {
		t.Errorf("MaxRadix 1: got %v, want ErrBadRequest", err)
	}

	rep := sess.Do(context.Background(), sunmap.Request{Op: sunmap.OpSearch, Search: &req})
	if rep.ErrorKind != sunmap.ErrorKindBadRequest {
		t.Errorf("Do error kind %q, want %q (%s)", rep.ErrorKind, sunmap.ErrorKindBadRequest, rep.Error)
	}
}
