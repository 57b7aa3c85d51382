package mapping

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sunmap/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/work_counts.golden from this run")

// namedCount is one work counter under its benchmark metric name.
type namedCount struct {
	name string
	n    int
}

// named lists the incremental sweep's work counters under the names
// BenchmarkMap reports and testdata/work_counts.golden pins.
func (w workCounts) named() []namedCount {
	return []namedCount{
		{"evaluated", w.evaluated},
		{"pruned-early", w.prunedEarly},
		{"pruned-mid", w.prunedMid},
		{"converged", w.converged},
		{"router-equiv", w.routerEquiv},
		{"same-design", w.sameDesign},
		{"tie-early", w.tieEarly},
		{"tie-mid", w.tieMid},
		{"rerouted", w.rerouted},
		{"single-path", w.singlePath},
	}
}

// TestWorkCountsGolden pins the work counters of one Map call of every
// BenchmarkMap case in testdata/work_counts.golden. The counts are a pure
// function of the inputs, so unlike a timing they change only when the
// sweep does different work; a change that saves or adds work shows here
// and must be explained. Regenerate the file with
//
//	go test -run TestWorkCountsGolden ./internal/mapping -update
func TestWorkCountsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Work counters of one Map call per BenchmarkMap case (see TestWorkCountsGolden).\n")
	for _, tc := range benchCases {
		topo := mustTopo(topology.ByName(tc.topo))
		sc := NewScratch()
		if _, err := MapContextWith(context.Background(), tc.app(), topo, tc.opts, sc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b.WriteString(tc.name)
		for _, c := range sc.inc.work.named() {
			fmt.Fprintf(&b, " %s=%d", c.name, c.n)
		}
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "work_counts.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("work counts differ from %s; explain the change, then rerun with -update.\ngot:\n%swant:\n%s", path, got, want)
	}
}
