package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"sunmap/internal/analysis"
	"sunmap/internal/analysis/suite"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestWorkloadsSmoke runs every workload, untraced and traced, in the
// few-op mode on a tiny corpus, and checks that every report verified
// and that every metric BENCHMARK.json lists is emitted with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(context.Background(), options{
					workload: w.Name, seed: 1, seconds: 0.01, trace: trace, smoke: true, outDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed > 0 || out.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Errors)
				}
				want := map[string]string{}
				if trace {
					for _, m := range bj.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bj.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := out.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's metric
// directions in step with the harness's metric tables.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	better := map[string]string{}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		better[s.name] = s.better
	}
	for _, m := range bj.EndToEnd {
		if better[m.Name] != m.Better {
			t.Errorf("%s: BENCHMARK.json says %q is better, the harness %q", m.Name, m.Better, better[m.Name])
		}
	}
	for _, m := range bj.PerLayer {
		if better[m.Name] != m.Better {
			t.Errorf("%s: BENCHMARK.json says %q is better, the harness %q", m.Name, m.Better, better[m.Name])
		}
	}
}

// TestDigestsCoverCorpus checks expected/digests.json holds exactly one
// digest per corpus op, so any seed's run can verify every report.
func TestDigestsCoverCorpus(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	ops := corpus()
	for _, o := range ops {
		if want[o.key] == "" {
			t.Errorf("%s: no digest", o.key)
		}
	}
	if len(want) != len(ops) {
		t.Errorf("%d digests for %d corpus ops", len(want), len(ops))
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the acceptance check's method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestLintClean holds the benchmark to the repository's own invariant
// analyzers, as the root module's self-lint test does for the program.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped in -short")
	}
	diags, err := analysis.Run(".", suite.All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
}
