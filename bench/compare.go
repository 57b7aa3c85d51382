package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// compareRuns reads two sets of result files — runs of a parent commit
// and of a change, made alternately with the same seeds — and prints,
// per workload and metric, each side's median and quartiles. Each
// bounded end-to-end metric gets a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's BENCHMARK.json bound;
//   - gain: over at least ten seed-paired runs, the change wins at least
//     nine in ten (ties count for neither) and the medians differ by more
//     than the parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run beats every parent run;
//   - unchanged: none of the above.
//
// It reports whether any metric regressed.
func compareRuns(w io.Writer, benchPath, parentDir, changeDir string) (regressed bool, err error) {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		return false, err
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-28s %-7s %28s %28s %8s %6s  %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, r := range compare(parent, change, bounds) {
		fmt.Fprintf(w, "%-12s %-28s %-7s %28s %28s %+7.1f%% %6s  %s\n", r.workload, r.metric, r.unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.parent.med, r.parent.q1, r.parent.q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.change.med, r.change.q1, r.change.q3),
			100*ratio(r.change.med-r.parent.med, r.parent.med), fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		regressed = regressed || r.verdict == "regression"
	}
	return regressed, nil
}

// benchmark is the part of BENCHMARK.json compare reads: the end-to-end
// metrics' bounds.
type benchmark struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end bounds of BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmark
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range bm.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// loadResults reads every result file of a directory (span files are
// skipped).
func loadResults(dir string) ([]outcome, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []outcome
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r outcome
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// side summarizes one side's values of one metric.
type side struct{ med, q1, q3 float64 }

type row struct {
	workload, metric, unit string
	parent, change         side
	wins, pairs            int
	verdict                string
}

// compare builds one row per workload and metric present on both sides.
func compare(parent, change []outcome, bounds map[string]float64) []row {
	type key struct {
		workload, metric string
		trace            bool
	}
	type runs struct {
		unit, better string
		bySeed       [2]map[int64]float64
	}
	all := map[key]*runs{}
	for i, rs := range [][]outcome{parent, change} {
		for _, r := range rs {
			for _, ms := range []map[string]metric{r.Metrics, r.Extra} {
				for name, m := range ms {
					k := key{r.Workload, name, r.Trace}
					if all[k] == nil {
						all[k] = &runs{unit: m.Unit, better: m.Better, bySeed: [2]map[int64]float64{{}, {}}}
					}
					all[k].bySeed[i][r.Seed] = m.Value
				}
			}
		}
	}
	keys := make([]key, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	var rows []row
	for _, k := range keys {
		rs := all[k]
		p, c := values(rs.bySeed[0]), values(rs.bySeed[1])
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		r := row{workload: k.workload, metric: k.metric, unit: rs.unit, parent: summarize(p), change: summarize(c)}
		sign := 1.0 // +1 when higher is better
		if rs.better == "lower" {
			sign = -1
		}
		for seed, pv := range rs.bySeed[0] {
			if cv, ok := rs.bySeed[1][seed]; ok {
				r.pairs++
				if sign*(cv-pv) > 0 {
					r.wins++
				}
			}
		}
		r.verdict = "-"
		if bound, ok := bounds[k.metric]; ok && !k.trace {
			r.verdict = verdict(r, p, c, sign, bound)
		}
		rows = append(rows, r)
	}
	return rows
}

// minPairs is the fewest seed-paired runs a gain may rest on.
const minPairs = 10

// verdict applies the rules in compareRuns's doc comment.
func verdict(r row, p, c []float64, sign, bound float64) string {
	diff := sign * (r.change.med - r.parent.med) // > 0: the change is better
	iqr := r.parent.q3 - r.parent.q1
	switch {
	case -diff > bound*math.Abs(r.parent.med):
		return "regression"
	case r.pairs >= minPairs && float64(r.wins) >= 0.9*float64(r.pairs) && diff > iqr:
		return "gain"
	case iqr > bound*math.Abs(r.parent.med) && !allBetter(p, c, sign):
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every change value beats every parent value.
func allBetter(p, c []float64, sign float64) bool {
	worstChange, bestParent := slices.Min(c), slices.Max(p)
	if sign < 0 {
		worstChange, bestParent = -slices.Max(c), -slices.Min(p)
	}
	return worstChange > bestParent
}

// values lists a side's values of one metric, one per seed.
func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// summarize returns one side's median and quartiles.
func summarize(s []float64) side {
	q1, q3 := quartiles(s)
	return side{median(s), q1, q3}
}
