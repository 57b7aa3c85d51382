// Command sunmap runs the SUNMAP flow: topology selection and mapping for
// an application core graph, optionally generating the SystemC network
// description (Phase 3). The serve subcommand runs the same pipeline as a
// batch HTTP/JSON service.
//
// Usage:
//
//	sunmap -app vopd -objective delay -routing MP -bw 500
//	sunmap -file design.cg -objective power -routing SM -gen out/
//	sunmap -app mpeg4 -escalate            # retries with split routing
//	sunmap -app dsp -topo butterfly-3ary2fly
//	sunmap -app vopd -j 8 -timeout 30s -progress
//	sunmap -app mpeg4 -synth               # add synthesized candidates
//	sunmap -app mpeg4 -search -search-budget 100000 -seed 1  # anneal a custom topology
//	sunmap -app dsp -synth -synth-radix 6  # looser switch-radix bound
//	sunmap serve -addr :8080 -j 8          # HTTP/JSON batch service
//	sunmap serve -metrics -pprof           # + GET /metrics and /debug/pprof/
//	sunmap -app vopd -trace                # per-stage span table on stderr
//	sunmap serve -data /var/lib/sunmap      # durable jobs
//	sunmap submit -server http://host:8080 -req search.json -wait  # durable async job
//	sunmap jobs -server http://host:8080   # list; -id j-1 [-result|-cancel|-wait]
//	sunmap -app vopd -cpuprofile cpu.out -memprofile mem.out  # field profiling
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"sunmap"
	"sunmap/internal/obs"
	"sunmap/serve"
	"sunmap/serve/client"
)

// stderrLog carries the CLI's diagnostics (leveled, structured); results
// themselves go to stdout.
var stderrLog = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	args := os.Args[1:]
	sub := func(f func() error) {
		if err := f(); err != nil {
			stderrLog.Error("sunmap", "cmd", args[0], "err", err)
			os.Exit(1)
		}
	}
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			sub(func() error { return runServe(args[1:], os.Stdout) })
			return
		case "submit":
			sub(func() error { return runSubmit(args[1:], os.Stdin, os.Stdout) })
			return
		case "jobs":
			sub(func() error { return runJobs(args[1:], os.Stdout) })
			return
		}
	}
	if err := run(args, os.Stdout); err != nil {
		stderrLog.Error("sunmap", "err", err)
		os.Exit(1)
	}
}

// runServe runs the HTTP/JSON batch service until interrupted, then shuts
// down gracefully.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sunmap serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	jobs := fs.Int("j", 0, "parallel mapping workers (0 = all cores, 1 = sequential)")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request processing budget")
	maxBatch := fs.Int("max-batch", 256, "maximum requests per /v1/batch call")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	synthesize := fs.Bool("synth", false, "synthesize application-specific candidates on selections")
	dataDir := fs.String("data", "", "job journal directory: async jobs survive restarts (empty = memory-only)")
	jobWorkers := fs.Int("job-workers", 2, "concurrent async job executions")
	retention := fs.Duration("retention", time.Hour, "how long finished jobs stay fetchable")
	queueDepth := fs.Int("max-queue-depth", 0, "shed synchronous requests past this many queued evaluations (0 = 4x parallelism, negative = never)")
	ckptEvery := fs.Int("checkpoint-every", 500, "annealing evaluations between search checkpoint emissions; the newest is journaled")
	metrics := fs.Bool("metrics", false, "expose Prometheus text metrics at GET /metrics")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiles reveal internals; keep off on untrusted networks)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("log-level: %w", err)
	}
	opts := []sunmap.SessionOption{sunmap.WithParallelism(*jobs)}
	if *synthesize {
		opts = append(opts, sunmap.WithSynth(sunmap.SynthOptions{}))
	}
	sess, err := sunmap.NewSession(opts...)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve.ListenAndServe(ctx, *addr, sess, serve.Options{
		RequestTimeout:  *reqTimeout,
		MaxBatch:        *maxBatch,
		MaxQueueDepth:   *queueDepth,
		JobsDir:         *dataDir,
		JobWorkers:      *jobWorkers,
		JobRetention:    *retention,
		CheckpointEvery: *ckptEvery,
		EnableMetrics:   *metrics,
		EnablePprof:     *pprofOn,
		Logger:          obs.NewLogger(os.Stderr, level),
		OnListen: func(a net.Addr) {
			fmt.Fprintf(out, "sunmap service listening on %s (POST /v1/do, /v1/batch, /v1/jobs; GET /healthz)\n", a)
		},
	}, *drain)
}

// runSubmit enqueues one durable async job from a Request JSON file
// ("-" = stdin) and prints the job snapshot; with -wait it polls to a
// terminal state and prints the full Report JSON.
func runSubmit(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("sunmap submit", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "sunmap serve base URL")
	reqPath := fs.String("req", "-", `request JSON file ("-" = stdin)`)
	wait := fs.Bool("wait", false, "poll until the job finishes and print its report")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval for -wait")
	timeout := fs.Duration("timeout", 0, "abort -wait after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		data []byte
		err  error
	)
	if *reqPath == "-" {
		data, err = io.ReadAll(in)
	} else {
		data, err = os.ReadFile(*reqPath)
	}
	if err != nil {
		return err
	}
	req, err := sunmap.ParseRequest(data)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cl := client.New(*server, client.Options{})
	jb, err := cl.Submit(ctx, *req)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(out, jb)
	}
	fmt.Fprintf(out, "job %s submitted; waiting\n", jb.ID)
	if jb, err = cl.Wait(ctx, jb.ID, *poll); err != nil {
		return err
	}
	if jb.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
	}
	rep, err := cl.Result(ctx, jb.ID)
	if err != nil {
		return err
	}
	return printJSON(out, rep)
}

// runJobs inspects a serve instance's job store: list by default, or
// one job's snapshot / result / cancellation with -id.
func runJobs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sunmap jobs", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "sunmap serve base URL")
	id := fs.String("id", "", "operate on this job instead of listing")
	result := fs.Bool("result", false, "fetch the job's report (needs -id)")
	cancel := fs.Bool("cancel", false, "cancel the job (needs -id)")
	wait := fs.Bool("wait", false, "poll until the job finishes (needs -id)")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval for -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" && (*result || *cancel || *wait) {
		return fmt.Errorf("-result, -cancel and -wait need -id")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := client.New(*server, client.Options{})
	switch {
	case *id == "":
		list, err := cl.Jobs(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, map[string]any{"jobs": list})
	case *cancel:
		jb, err := cl.Cancel(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(out, jb)
	case *result:
		rep, err := cl.Result(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(out, rep)
	case *wait:
		jb, err := cl.Wait(ctx, *id, *poll)
		if err != nil {
			return err
		}
		return printJSON(out, jb)
	default:
		jb, err := cl.Job(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(out, jb)
	}
}

func printJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sunmap", flag.ContinueOnError)
	appName := fs.String("app", "", "built-in application (vopd, mpeg4, netproc, dsp)")
	file := fs.String("file", "", "core-graph file in SUNMAP text format")
	objective := fs.String("objective", "delay", "design objective: delay, area or power")
	routing := fs.String("routing", "MP", "routing function: DO, MP, SM or SA")
	bw := fs.Float64("bw", 500, "link capacity in MB/s (0 = unconstrained)")
	maxArea := fs.Float64("maxarea", 0, "chip area constraint in mm^2 (0 = unconstrained)")
	techName := fs.String("tech", "100nm", "technology node (130nm, 100nm, 90nm, 65nm)")
	topoName := fs.String("topo", "", "map onto one named topology instead of selecting")
	escalate := fs.Bool("escalate", false, "escalate to split routing if nothing is feasible")
	extras := fs.Bool("extras", false, "include octagon and star in the library")
	synthesize := fs.Bool("synth", false, "synthesize application-specific candidate topologies")
	synthRadix := fs.Int("synth-radix", 0, "switch radix bound for synthesized topologies (0 = default 4)")
	doSearch := fs.Bool("search", false, "discover an application-specific topology by annealing search instead of selecting")
	searchBudget := fs.Int("search-budget", 0, "candidate-evaluation budget for -search (0 = default 20000)")
	seed := fs.Int64("seed", 0, "random seed for -search (same seed, same topology at any -j)")
	faults := fs.Bool("faults", false, "fault-sweep the chosen design: survivability under simultaneous link failures")
	faultK := fs.Int("fault-k", 1, "simultaneous failures for -faults (k<=2 exhaustive, above Monte Carlo)")
	genDir := fs.String("gen", "", "write the generated SystemC design to this directory")
	jobs := fs.Int("j", 0, "parallel mapping workers (0 = all cores, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "stream per-topology progress as candidates finish")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	traceFlag := fs.Bool("trace", false, "print a per-stage timing table (spans, cache, limiter) to stderr after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Field profiling hooks: -cpuprofile wraps the whole run, -memprofile
	// snapshots live heap after it. Inspect with `go tool pprof`.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				stderrLog.Warn("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				stderrLog.Warn("memprofile", "err", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	appSpec, err := appSpec(*appName, *file)
	if err != nil {
		return err
	}
	mapSpec := sunmap.MapSpec{
		Routing:      *routing,
		Objective:    *objective,
		CapacityMBps: *bw,
		MaxAreaMM2:   *maxArea,
		Tech:         *techName,
	}

	sessOpts := []sunmap.SessionOption{
		sunmap.WithParallelism(*jobs),
		sunmap.WithLibrary(sunmap.LibraryOptions{IncludeExtras: *extras}),
	}
	if *synthesize || *synthRadix > 0 {
		sessOpts = append(sessOpts, sunmap.WithSynth(sunmap.SynthOptions{MaxRadix: *synthRadix}))
	}
	if *traceFlag {
		tr := sunmap.NewTrace()
		sessOpts = append(sessOpts, sunmap.WithTrace(tr))
		defer tr.WriteText(os.Stderr)
	}
	if *progress {
		sessOpts = append(sessOpts, sunmap.WithProgress(func(ev sunmap.ProgressEvent) {
			status := fmt.Sprintf("mapped in %v", ev.Elapsed.Round(time.Millisecond))
			switch {
			case ev.CacheHit:
				status = "cache hit"
			case ev.Err != nil:
				status = "unmappable"
			}
			fmt.Fprintf(out, "[%d/%d] %-22s %s %s\n", ev.Done, ev.Total, ev.Topology, ev.Routing, status)
		}))
	}
	sess, err := sunmap.NewSession(sessOpts...)
	if err != nil {
		return err
	}

	var best *sunmap.DesignReport
	routingUsed := *routing
	if *doSearch {
		if *topoName != "" {
			return fmt.Errorf("give either -search or -topo, not both")
		}
		rep, err := sess.Search(ctx, sunmap.SearchRequest{
			App:     appSpec,
			Mapping: mapSpec,
			Search:  sunmap.SearchOptions{Budget: *searchBudget, Seed: *seed},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: search seed %d, %d evaluations across %d chains (%d accepted)\n",
			rep.App, rep.Seed, rep.Evaluations, rep.Chains, rep.Accepted)
		fmt.Fprintf(out, "discovered %s: %d switches, %d bidirectional links, fitness %.4f\n",
			rep.Topology, rep.Routers, len(rep.BiLinks), rep.Fitness)
		fmt.Fprintf(out, "links: %v\n", rep.BiLinks)
		best = rep.Best
		printResult(out, best)
	} else if *topoName != "" {
		best, err = sess.Map(ctx, sunmap.MapRequest{App: appSpec, Topology: *topoName, Mapping: mapSpec})
		if err != nil {
			return err
		}
		printResult(out, best)
	} else {
		rep, err := sess.Select(ctx, sunmap.SelectRequest{
			App:      appSpec,
			Mapping:  mapSpec,
			Escalate: *escalate,
		})
		if err != nil && rep == nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d candidates (%d synthesized), %d feasible (routing %s)\n",
			rep.App, rep.Candidates, rep.Synthesized, rep.Feasible, rep.RoutingUsed)
		fmt.Fprintf(out, "%-22s %8s %9s %10s %9s %6s %9s\n",
			"topology", "avg hops", "area mm2", "power mW", "max MB/s", "SW", "feasible")
		for _, r := range rep.Rows {
			fmt.Fprintf(out, "%-22s %8.2f %9.2f %10.1f %9.1f %6d %9v\n",
				r.Topology, r.AvgHops, r.AreaMM2, r.PowerMW, r.MaxLoadMBps, r.Switches, r.Feasible)
		}
		if errors.Is(err, sunmap.ErrInfeasible) {
			return fmt.Errorf("no feasible topology; try -escalate or a higher -bw")
		}
		if err != nil {
			return err
		}
		best = rep.Best
		routingUsed = rep.RoutingUsed
		fmt.Fprintf(out, "\nselected: %s\n", rep.Topology)
		printResult(out, best)
	}

	if *faults {
		// Survivability of the chosen design, replayed through the session
		// cache under the routing function the selection settled on.
		faultSpec := mapSpec
		faultSpec.Routing = routingUsed
		frep, err := sess.FaultSweep(ctx, sunmap.FaultSweepRequest{
			App:      appSpec,
			Topology: best.Topology,
			Mapping:  faultSpec,
			Fault:    sunmap.FaultSpec{K: *faultK},
		})
		if err != nil {
			return err
		}
		mode := "Monte Carlo"
		if frep.Exhaustive {
			mode = "exhaustive"
		}
		fmt.Fprintf(out, "\nfault sweep on %s: k=%d %s, %d scenarios (%s), degraded routing %s\n",
			frep.Topology, frep.K, frep.Elements, frep.Scenarios, mode, frep.Routing)
		fmt.Fprintf(out, "survivability %.3f (connected %.3f)\n", frep.Survivability, frep.ConnectedFrac)
		fmt.Fprintf(out, "max link load MB/s: baseline %.1f, expected %.1f, worst %.1f (links %v)\n",
			frep.BaselineMaxLoadMBps, frep.ExpectedMaxLoadMBps, frep.WorstMaxLoadMBps, frep.WorstLinks)
		fmt.Fprintf(out, "avg hops: baseline %.3f, expected %.3f, worst %.3f\n",
			frep.BaselineAvgHops, frep.ExpectedAvgHops, frep.WorstAvgHops)
		if len(frep.DisconnectingLinks) > 0 || len(frep.DisconnectingSwitches) > 0 {
			fmt.Fprintf(out, "first disconnecting scenario: links %v switches %v\n",
				frep.DisconnectingLinks, frep.DisconnectingSwitches)
		}
	}

	if *genDir != "" {
		// Regenerate through the session: the mapping replays from the
		// session cache, under the routing function the selection settled on.
		genSpec := mapSpec
		genSpec.Routing = routingUsed
		gen, err := sess.Generate(ctx, sunmap.GenerateRequest{App: appSpec, Topology: best.Topology, Mapping: genSpec})
		if err != nil {
			return err
		}
		if err := gen.WriteTo(*genDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "generated %d SystemC files in %s\n", len(gen.Files), *genDir)
	}
	return nil
}

// appSpec converts the -app/-file flags to a request AppSpec.
func appSpec(name, file string) (sunmap.AppSpec, error) {
	switch {
	case name != "" && file != "":
		return sunmap.AppSpec{}, fmt.Errorf("give either -app or -file, not both")
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return sunmap.AppSpec{}, err
		}
		return sunmap.AppSpec{Text: string(data)}, nil
	case name != "":
		return sunmap.AppSpec{Name: name}, nil
	default:
		return sunmap.AppSpec{}, fmt.Errorf("need -app or -file")
	}
}

func printResult(out io.Writer, r *sunmap.DesignReport) {
	fmt.Fprintf(out, "mapping on %s: avg hops %.3f, area %.2f mm^2, power %.1f mW, max link %.1f MB/s\n",
		r.Topology, r.AvgHops, r.DesignAreaMM2, r.PowerMW, r.MaxLinkLoadMBps)
	fmt.Fprintf(out, "feasible: bandwidth=%v area=%v aspect=%v, swaps applied: %d\n",
		r.BandwidthOK, r.AreaOK, r.AspectOK, r.SwapsApplied)
	for _, a := range r.Assign {
		fmt.Fprintf(out, "  core %-12s -> terminal %d (router %d)\n", a.Core, a.Terminal, a.Router)
	}
}
