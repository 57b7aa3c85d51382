// Command sunexp regenerates the paper's tables and figures (Section 6)
// as text tables — the source of EXPERIMENTS.md.
//
// Usage:
//
//	sunexp                 # run everything
//	sunexp -exp fig6       # one experiment
//	sunexp -exp fig8b -rates 0.1,0.3,0.5
//	sunexp -j 8 -timeout 5m
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sunmap/internal/engine"
	"sunmap/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sunexp:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	run  func(ctx context.Context, r exp.Runner, rates []float64) (fmt.Stringer, error)
}

var experiments = []experiment{
	{"fig3d", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig3d(ctx) }},
	{"fig6", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig6(ctx) }},
	{"fig7b", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig7b(ctx) }},
	{"fig8b", func(ctx context.Context, r exp.Runner, rates []float64) (fmt.Stringer, error) {
		return r.Fig8b(ctx, rates)
	}},
	{"fig8cd", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig8cd(ctx) }},
	{"fig9a", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig9a(ctx) }},
	{"fig9b", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig9b(ctx) }},
	{"fig10", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig10(ctx) }},
	{"fig11", func(ctx context.Context, r exp.Runner, _ []float64) (fmt.Stringer, error) { return r.Fig11(ctx) }},
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sunexp", flag.ContinueOnError)
	which := fs.String("exp", "all", "experiment: all, fig3d, fig6, fig7b, fig8b, fig8cd, fig9a, fig9b, fig10, fig11")
	rates := fs.String("rates", "", "injection rates for fig8b (comma separated)")
	jobs := fs.Int("j", 0, "parallel evaluation workers (0 = all cores, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *jobs < 0 {
		return fmt.Errorf("negative -j %d", *jobs)
	}
	// One cache across all figures: experiments that revisit the same
	// application and options (e.g. fig10 and fig11's DSP selection)
	// reuse memoized design points instead of re-mapping them.
	runner := exp.Runner{Parallelism: *jobs, Cache: engine.NewCache()}
	var rateList []float64
	for _, part := range strings.Split(*rates, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad rate %q", part)
		}
		rateList = append(rateList, v)
	}

	ran := 0
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		start := time.Now()
		res, err := e.run(ctx, runner, rateList)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(out, res.String())
		fmt.Fprintf(out, "[%s regenerated in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return nil
}
