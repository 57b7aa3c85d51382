package sunmap_test

import (
	"context"
	"testing"

	"sunmap"
)

// maxWarmSelectAllocs is the measured allocation count of a warm vopd
// select served from the session's cache and topology catalog. Before
// the catalog every select rebuilt its library: 746 allocations.
const maxWarmSelectAllocs = 71

// TestCatalogWarmSelectAllocs is the warm select's allocation gate: the
// session builds the 12-core library once, so a repeated select costs
// cache lookups and the report.
func TestCatalogWarmSelectAllocs(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	req := sunmap.SelectRequest{
		App:      sunmap.AppSpec{Name: "vopd"},
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
		Escalate: true,
	}
	ctx := context.Background()
	if _, err := sess.Select(ctx, req); err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sess.Select(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if st := sess.CacheStats(); st.Misses != before.Misses {
		t.Fatalf("warm selects missed: %+v before, %+v after", before, st)
	}
	if allocs > maxWarmSelectAllocs {
		t.Errorf("warm vopd select allocates %.0f times, want at most %d", allocs, maxWarmSelectAllocs)
	}
}
