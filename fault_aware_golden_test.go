package sunmap_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sunmap"
)

var updateFaultGolden = flag.Bool("update", false, "rewrite testdata/fault_aware.golden from this run")

const faultAwareGolden = "testdata/fault_aware.golden"

// faultAwareRequests are the fault-aware select, pareto and search
// requests: the ops whose reports carry a survivability measured on the
// Session's sweepers, and which the benchmark corpus does not cover.
func faultAwareRequests() []sunmap.Request {
	vopd, mpeg4 := sunmap.AppSpec{Name: "vopd"}, sunmap.AppSpec{Name: "mpeg4"}
	links := &sunmap.FaultSpec{K: 1, Elements: "links"}
	both := &sunmap.FaultSpec{K: 2, Elements: "both"}
	return []sunmap.Request{
		{ID: "select-vopd-k1", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: vopd, Fault: links,
		}},
		{ID: "select-mpeg4-escalate-k2", Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
			App: mpeg4, Escalate: true, Fault: both,
		}},
		{ID: "pareto-vopd-k1", Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{
			App: vopd, Topology: "mesh-3x4", Fault: links,
		}},
		{ID: "search-vopd-k1", Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
			App: vopd, Search: sunmap.SearchOptions{Budget: 2000, Seed: 1}, Fault: links,
		}},
		{ID: "search-mpeg4-k2", Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
			App: mpeg4, Search: sunmap.SearchOptions{Budget: 2000, Seed: 2}, Fault: both,
		}},
	}
}

// TestFaultAwareReportsGolden pins the SHA-256 of each fault-aware
// report's canonical JSON (the serve encoding, without HTML escaping or
// the trailing newline), run on a fresh Session at parallelism 1 and 2.
// `go test -run TestFaultAwareReportsGolden -update .` rewrites the file.
func TestFaultAwareReportsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, par := range []int{1, 2} {
		for _, req := range faultAwareRequests() {
			sess, err := sunmap.NewSession(sunmap.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			rep := sess.Do(context.Background(), req)
			if rep.Error != "" {
				t.Fatalf("%s at parallelism %d: %s", req.ID, par, rep.Error)
			}
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(&rep); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(bytes.TrimSuffix(b.Bytes(), []byte("\n")))
			fmt.Fprintf(&got, "%s -j%d %s\n", req.ID, par, hex.EncodeToString(sum[:]))
		}
	}
	if *updateFaultGolden {
		if err := os.MkdirAll(filepath.Dir(faultAwareGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(faultAwareGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(faultAwareGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got.String() {
		t.Errorf("%s differs from this run:\ngot:\n%swant:\n%s", faultAwareGolden, got.String(), want)
	}
}
