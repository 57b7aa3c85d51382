// Command bench is sunmap's end-to-end benchmark. Four workloads drive
// the public surface the way users do — Session.Do in-process, and the
// serve handler over a real loopback HTTP server — and every Report
// they receive is checked against the digest of its canonical JSON in
// expected/digests.json. An untraced run prints the end-to-end metrics
// BENCHMARK.json bounds; a traced run (-trace 1) prints per-layer
// metrics from the session trace, benchmark-side spans and a
// parallelism-1 layer pass. README.md explains each workload and metric.
//
// Usage (from the repository root, through bench/run.sh):
//
//	bench -workload select-cold -seed 1 -seconds 20 -trace 0
//	bench -update
//	bench -compare <parent-dir> <change-dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when any op failed or its report did not match its digest, and when
// serve-warm's generator ran too late for the run to count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sunmap"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke runs one round of a tiny corpus with one set-up: the
	// package test's mode.
	smoke  bool
	outDir string
}

// setupReps is how often an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 5

// runTimeout keeps a run inside the 180 s a benchmark run may take.
const runTimeout = 170 * time.Second

// outcome is one run's result, as the result file records it.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Steps     []step            `json:"steps,omitempty"`
	// Invalid says why an open-loop run does not count, if it does not.
	Invalid string   `json:"invalid,omitempty"`
	Errors  []string `json:"errors,omitempty"`
}

func main() {
	var (
		o        options
		trace    int
		update   bool
		expected string
		cmp      bool
		bench    string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: select-cold, serve-warm, search-jobs or fault-sim")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long a closed-loop workload measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and the layer pass and prints per-layer metrics")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result, span and job-journal files")
	flag.BoolVar(&update, "update", false, "regenerate the expected digests from fresh parallelism-1 sessions")
	flag.StringVar(&expected, "expected", "bench/expected/digests.json", "digest file -update writes")
	flag.BoolVar(&cmp, "compare", false, "compare the result files of two directories: -compare <parent-dir> <change-dir>")
	flag.StringVar(&bench, "bench", "BENCHMARK.json", "benchmark definition -compare reads the bounds from")
	flag.Parse()

	if cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants <parent-dir> <change-dir>")
			os.Exit(2)
		}
		regressed, err := compareRuns(os.Stdout, bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if update {
		if err := updateDigests(context.Background(), expected); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: want -workload select-cold, serve-warm, search-jobs or fault-sim, -trace 0 or 1 and -seconds > 0")
		os.Exit(2)
	}
	o.trace = trace == 1
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	out, err := run(ctx, o)
	cancel()
	if err == nil {
		err = out.save(o.outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout)
	if !out.Correct || out.Invalid != "" {
		for _, e := range out.Errors {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		if out.Invalid != "" {
			fmt.Fprintln(os.Stderr, "bench: run invalid:", out.Invalid)
		}
		os.Exit(1)
	}
}

// run sets the workload up and measures it: untraced, the end-to-end
// metrics; traced, the per-layer metrics of an untraced and a traced
// instance driven together, and the layer pass.
func run(ctx context.Context, o options) (*outcome, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, err
	}
	e := env{seed: o.seed, smoke: o.smoke, outDir: o.outDir, want: want}
	out := &outcome{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	if !o.trace {
		return out, out.untraced(ctx, o, e)
	}
	return out, out.traced(ctx, o, e)
}

func (out *outcome) untraced(ctx context.Context, o options, e env) error {
	wl := workloads[o.workload]
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	var (
		inst   instance
		l      load
		setups []time.Duration
	)
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if inst, err = wl.setup(ctx, e); err != nil {
			return fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		if l, err = wl.load(e); err != nil {
			return errors.Join(err, inst.close())
		}
		setups = append(setups, time.Since(t))
	}
	a0 := totalAlloc()
	samples, elapsed := drive(ctx, l, o.seconds, []instance{inst})
	alloc := totalAlloc() - a0
	if err := inst.close(); err != nil {
		return err
	}
	vals, st, err := untracedMetrics(o.workload, setups, samples, elapsed, alloc)
	if err != nil {
		return err
	}
	out.Metrics = fill(endToEnd, vals)
	out.Extra = map[string]metric{}
	for _, s := range extras {
		if v, ok := vals[s.name]; ok {
			out.Extra[s.name] = metric{v, s.unit, s.better}
		}
	}
	out.Steps = st
	out.tally(samples)
	// A generator that sends late offers less load than the schedule
	// says. Its tail is the scheduler's wake-up delay while a miss holds
	// both cores — latency counts that wait, as it is timed from the due
	// time — so the typical lag is what must stay small.
	if lag, p50 := vals["gen_lag_p50_ms"], vals["latency_p50_ms"]; o.workload == "serve-warm" && !o.smoke && lag > 0.1*p50 {
		out.Invalid = fmt.Sprintf("generator lag p50 %.3f ms exceeds 10%% of the nominal latency p50 %.3f ms", lag, p50)
	}
	return nil
}

// traced drives an untraced and a traced instance with one load, so the
// tracing overhead compares the same ops under the same host load, then
// runs the layer pass over the ops the traced instance served.
func (out *outcome) traced(ctx context.Context, o options, e env) error {
	wl := workloads[o.workload]
	plain, err := wl.setup(ctx, e)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", o.workload, err)
	}
	te := e
	te.trace, te.spans = sunmap.NewTrace(), newSpanLog()
	traced, err := wl.setup(ctx, te)
	if err != nil {
		return errors.Join(fmt.Errorf("setting up traced %s: %w", o.workload, err), plain.close())
	}
	l, err := wl.load(e)
	if err != nil {
		return errors.Join(err, plain.close(), traced.close())
	}
	before := te.trace.Snapshot()
	samples, _ := drive(ctx, l, o.seconds, []instance{plain, traced})
	after := te.trace.Snapshot()
	probe, err := traced.probe(ctx)
	if err = errors.Join(err, plain.close(), traced.close()); err != nil {
		return err
	}
	out.tally(samples)

	var ref, tr []sample
	for _, s := range samples {
		if s.instance == 0 {
			ref = append(ref, s)
		} else {
			tr = append(tr, s)
		}
	}
	vals := tracedMetrics(before, after, tr)
	for k, v := range probe {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = overhead(reported(o.workload, ref), reported(o.workload, tr))
	layers, err := runLayerPass(ctx, o.workload, e.want, tr)
	if err != nil {
		return err
	}
	for k, v := range layers {
		vals[k] = v
	}
	out.Metrics = fill(perLayer, vals)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return te.spans.write(filepath.Join(o.outDir, o.workload+".trace.json"), after)
}

// tally counts attempted and failed ops.
func (out *outcome) tally(samples []sample) {
	out.Attempted = len(samples)
	for _, s := range samples {
		if s.err != nil {
			out.Failed++
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	out.Errors = firstErrors(samples, 5)
}

// save writes the run's result file, which bench/compare reads.
func (out *outcome) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "json"
	if out.Trace {
		kind = "layers.json"
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d.%s", out.Workload, out.Seed, kind)), append(b, '\n'), 0o644)
}

// print writes each metric by name with its unit, serve-warm's step
// table, then the one-line JSON summary.
func (out *outcome) print(w io.Writer) {
	specs := endToEnd
	if out.Trace {
		specs = perLayer
	}
	line := func(name string, m metric) {
		fmt.Fprintf(w, "%-12s %-28s %14.4f %s\n", out.Workload, name, m.Value, m.Unit)
	}
	for _, s := range specs {
		line(s.name, out.Metrics[s.name])
	}
	for _, s := range extras {
		if m, ok := out.Extra[s.name]; ok {
			line(s.name, m)
		}
	}
	for _, s := range out.Steps {
		fmt.Fprintf(w, "%-12s step %4.0f req/s  sent %4d  p50/p90/p99 %.3f/%.3f/%.3f ms  backlog %d  gen-lag p50/p99 %.3f/%.3f ms\n",
			out.Workload, s.RateRPS, s.Sent, s.P50MS, s.P90MS, s.P99MS, s.Backlog, s.GenLagP50, s.GenLagP99)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for name, m := range out.Metrics {
		summary.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(summary) // plain numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", b)
}

// updateDigests rewrites the expected digests from a fresh
// parallelism-1 session per corpus op.
func updateDigests(ctx context.Context, path string) error {
	d := digests{}
	for _, o := range corpus() {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
		if err != nil {
			return err
		}
		rep := sess.Do(ctx, o.req)
		if rep.Error != "" && rep.ErrorKind != sunmap.ErrorKindInfeasible {
			return fmt.Errorf("%s: %s", o.key, rep.Error)
		}
		canon, err := canonical(&rep)
		if err != nil {
			return err
		}
		d[o.key] = digest(canon)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(d), path)
	return nil
}
