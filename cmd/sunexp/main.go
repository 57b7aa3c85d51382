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

	"sunmap"
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
	run  func(ctx context.Context, s *sunmap.Session, rates []float64) (fmt.Stringer, error)
}

var experiments = []experiment{
	{"fig3d", fig(exp.Fig3d)},
	{"fig6", fig(exp.Fig6)},
	{"fig7b", fig(exp.Fig7b)},
	{"fig8b", func(ctx context.Context, s *sunmap.Session, rates []float64) (fmt.Stringer, error) {
		return exp.Fig8b(ctx, s, rates)
	}},
	{"fig8cd", fig(exp.Fig8cd)},
	{"fig9a", fig(exp.Fig9a)},
	{"fig9b", fig(exp.Fig9b)},
	{"fig10", fig(exp.Fig10)},
	{"fig11", fig(exp.Fig11)},
}

// fig adapts a figure without a rate axis to an experiment's run.
func fig[R fmt.Stringer](f func(context.Context, *sunmap.Session) (R, error)) func(context.Context, *sunmap.Session, []float64) (fmt.Stringer, error) {
	return func(ctx context.Context, s *sunmap.Session, _ []float64) (fmt.Stringer, error) { return f(ctx, s) }
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
	// One session across all figures: experiments that revisit the same
	// application and options (e.g. fig10 and fig11's DSP selection)
	// reuse its cached design points instead of re-mapping them.
	sess, err := sunmap.NewSession(sunmap.WithParallelism(*jobs))
	if err != nil {
		return err
	}
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
		res, err := e.run(ctx, sess, rateList)
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
