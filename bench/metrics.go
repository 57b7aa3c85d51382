package main

import (
	"fmt"
	"runtime"
	"time"

	"sunmap"
)

// spec names one metric with its unit and the direction that is better.
type spec struct{ name, unit, better string }

// endToEnd are the metrics a user of each workload sees; BENCHMARK.json
// bounds each one. Every workload emits all of them.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb_per_op", "MiB/op", "lower"},
}

// extras are reported beside the end-to-end metrics but bounded by no
// one: the latency tail, which swings by a fifth or more between
// identical runs on a shared 2-core box (p99 also lacks ten samples
// beyond it on some workloads), the failure rate, and serve-warm's
// open-loop validity numbers.
var extras = []spec{
	{"latency_p90_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"latency_samples", "count", "higher"},
	{"error_rate", "ratio", "lower"},
	{"slo_rps", "1/s", "higher"},
	{"gen_lag_p50_ms", "ms", "lower"},
	{"gen_lag_p99_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. Time
// and count metrics are per call or per op as README.md describes; a
// layer the workload does not reach reads 0.
var perLayer = []spec{
	{"serve.decode_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"serve.response_kb", "KiB", "lower"},
	{"session.do_ms", "ms", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.evaluations", "count", "lower"},
	{"engine.evaluate_ms", "ms", "lower"},
	{"pool.limiter_wait_ms", "ms", "lower"},
	{"pool.blocked_acquires", "count", "lower"},
	{"pool.try_hit_ratio", "ratio", "higher"},
	{"core.candidates_per_select", "count", "lower"},
	{"core.feasible_ratio", "ratio", "higher"},
	{"core.escalated_frac", "ratio", "lower"},
	{"mapping.map_ms", "ms", "lower"},
	{"mapping.maps_per_op", "count", "lower"},
	{"mapping.swaps_per_map", "count", "lower"},
	{"route.route_us", "us", "lower"},
	{"floorplan.plan_us", "us", "lower"},
	{"power.eval_us", "us", "lower"},
	{"synth.candidates_ms", "ms", "lower"},
	{"fault.build_us", "us", "lower"},
	{"fault.sweep_ms", "ms", "lower"},
	{"fault.scenarios_per_s", "1/s", "higher"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.cycles_per_s", "1/s", "higher"},
	{"sim.packets_per_s", "1/s", "higher"},
	{"search.run_ms", "ms", "lower"},
	{"search.evals_per_s", "1/s", "higher"},
	{"search.accept_ratio", "ratio", "higher"},
	{"jobs.submit_ms", "ms", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.poll_us", "us", "lower"},
	{"jobs.journal_kb_per_job", "KiB", "lower"},
	{"jobs.replay_ms", "ms", "lower"},
	{"xpipes.generate_ms", "ms", "lower"},
	{"ledger.unaccounted_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metric is one measured value as the result files record it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

// fill turns raw values into metrics for every spec; missing values
// read 0.
func fill(specs []spec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{vals[s.name], s.unit, s.better}
	}
	return out
}

// step is one serve-warm rate step's outcome.
type step struct {
	RateRPS float64 `json:"rate_rps"`
	Sent    int     `json:"sent"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	// Backlog counts requests due by the step's end but not yet sent.
	Backlog int `json:"backlog"`
	// GenLag is how late the generator sent, over the step's requests.
	GenLagP50 float64 `json:"gen_lag_p50_ms"`
	GenLagP99 float64 `json:"gen_lag_p99_ms"`
}

// reported returns the samples a workload's latencies are taken over:
// every op of a closed loop, the nominal step of serve-warm.
func reported(workload string, samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if workload != "serve-warm" || s.step == nominalStep {
			out = append(out, s)
		}
	}
	return out
}

func latencies(samples []sample) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	return lat
}

// overhead is the traced instance's latency over the untraced one's,
// minus 1: the median over op keys of the ratio of the two per-key
// median latencies. Comparing op by op keeps the mix out of it, and
// the instances ran those ops side by side.
func overhead(plain, traced []sample) float64 {
	perKey := func(ss []sample) map[string]float64 {
		by := map[string][]time.Duration{}
		for _, s := range ss {
			by[s.key] = append(by[s.key], s.lat)
		}
		out := map[string]float64{}
		for k, l := range by {
			out[k] = percentile(l, 0.5)
		}
		return out
	}
	p, t := perKey(plain), perKey(traced)
	var ratios []float64
	for k, pv := range p {
		if tv, ok := t[k]; ok && pv > 0 {
			ratios = append(ratios, tv/pv)
		}
	}
	return median(ratios) - 1
}

// steps folds serve-warm's samples per rate step.
func steps(samples []sample) []step {
	out := make([]step, len(serveRates))
	for k := range out {
		var lat, lag []time.Duration
		var end time.Duration
		for _, s := range samples {
			if s.step == k {
				lat = append(lat, s.lat)
				lag = append(lag, s.lag)
				end = s.stepEnd
			}
		}
		for _, s := range samples {
			if s.due <= end && s.sent > end {
				out[k].Backlog++
			}
		}
		out[k].RateRPS = serveRates[k]
		out[k].Sent = len(lat)
		out[k].P50MS, out[k].P90MS, out[k].P99MS = percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.99)
		out[k].GenLagP50, out[k].GenLagP99 = percentile(lag, 0.5), percentile(lag, 0.99)
	}
	return out
}

// sloRPS is the highest step rate up to which every step's p99 meets
// the SLO with at most one request per connection still waiting at the
// step's end.
func sloRPS(st []step) float64 {
	var best float64
	for _, s := range st {
		if s.P99MS > sloMS || s.Backlog > serveConns {
			break
		}
		best = s.RateRPS
	}
	return best
}

// untracedMetrics computes the end-to-end metrics and extras of one
// untraced run.
func untracedMetrics(workload string, setups []time.Duration, samples []sample, elapsed time.Duration, allocBytes uint64) (map[string]float64, []step, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	lat := latencies(reported(workload, samples))
	failed := 0
	for _, s := range samples {
		if s.err != nil {
			failed++
		}
	}
	n := float64(len(samples))
	vals := map[string]float64{
		"setup_s":         median(setupS),
		"ops_per_s":       throughput(workload, samples, elapsed),
		"latency_p50_ms":  percentile(lat, 0.5),
		"latency_p90_ms":  percentile(lat, 0.9),
		"peak_rss_mb":     rss,
		"alloc_mb_per_op": float64(allocBytes) / (1 << 20) / n,
		"latency_p99_ms":  percentile(lat, 0.99),
		"latency_samples": float64(len(lat)),
		"error_rate":      float64(failed) / n,
	}
	var st []step
	if workload == "serve-warm" {
		st = steps(samples)
		vals["slo_rps"] = sloRPS(st)
		vals["gen_lag_p50_ms"] = st[nominalStep].GenLagP50
		vals["gen_lag_p99_ms"] = st[nominalStep].GenLagP99
	}
	return vals, st, nil
}

// throughput is the open loop's ops over its wall time, and a closed
// loop's median over rounds of each round's ops per second: every round
// holds the same mix, and the median ignores a round a noisy neighbour
// slowed.
func throughput(workload string, samples []sample, elapsed time.Duration) float64 {
	if workload == "serve-warm" {
		return float64(len(samples)) / elapsed.Seconds()
	}
	type span struct {
		n          int
		start, end time.Duration
	}
	rounds := map[int]*span{}
	for _, s := range samples {
		r := rounds[s.round]
		if r == nil {
			r = &span{start: s.start}
			rounds[s.round] = r
		}
		r.n++
		r.start, r.end = min(r.start, s.start), max(r.end, s.end)
	}
	var rates []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.n)/(r.end-r.start).Seconds())
	}
	return median(rates)
}

// totalAlloc reads the cumulative heap allocation counter.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// tracedMetrics computes the per-layer metrics a traced run measures
// itself: the session trace's engine and pool counters over the timed
// phase (before minus after), response sizes and the job client's
// timings.
func tracedMetrics(before, after sunmap.TraceSnapshot, samples []sample) map[string]float64 {
	stage := func(ts sunmap.TraceSnapshot, name string) (uint64, int64) {
		for _, s := range ts.Stages {
			if s.Stage == name {
				return s.Count, s.Nanos
			}
		}
		return 0, 0
	}
	n0, ns0 := stage(before, "evaluate")
	n1, ns1 := stage(after, "evaluate")
	ops := float64(len(samples))
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	tryHits, tryMisses := float64(after.TryHits-before.TryHits), float64(after.TryMisses-before.TryMisses)
	vals := map[string]float64{
		"engine.cache_hit_ratio": ratio(hits, hits+misses),
		"engine.evaluations":     ratio(float64(n1-n0), ops),
		"engine.evaluate_ms":     ratio(float64(ns1-ns0)/1e6, float64(n1-n0)),
		"pool.limiter_wait_ms":   ratio(float64(after.WaitNanos-before.WaitNanos)/1e6, ops),
		"pool.blocked_acquires":  ratio(float64(after.Blocked-before.Blocked), ops),
		"pool.try_hit_ratio":     ratio(tryHits, tryHits+tryMisses),
	}
	var resp, served, jobs, polls float64
	var submit, queue, poll time.Duration
	for _, s := range samples {
		if s.respBytes > 0 {
			resp += float64(s.respBytes)
			served++
		}
		if s.submit > 0 {
			jobs++
			submit += s.submit
			queue += s.queueWait
			for _, p := range s.polls {
				poll += p
				polls++
			}
		}
	}
	vals["serve.response_kb"] = ratio(resp/1024, served)
	vals["jobs.submit_ms"] = ratio(ms(submit), jobs)
	vals["jobs.queue_wait_ms"] = ratio(ms(queue), jobs)
	vals["jobs.poll_us"] = ratio(float64(poll)/float64(time.Microsecond), polls)
	return vals
}

// firstErrors lists up to n op failures for the result file.
func firstErrors(samples []sample, n int) []string {
	var out []string
	for _, s := range samples {
		if s.err != nil && len(out) < n {
			out = append(out, fmt.Sprint(s.err))
		}
	}
	return out
}
