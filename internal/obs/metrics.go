package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Inc and Add are single
// atomic operations — safe on hot paths, allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free: one
// atomic bucket increment, one atomic count increment, and a CAS loop
// folding the observation into the float64-bits sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits accumulator
}

// DurationBuckets is the default latency bucketing: 100µs to 60s in
// roughly exponential steps, wide enough for both the µs-scale mapping
// evaluations and multi-second search jobs.
var DurationBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60,
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSeconds records a duration sample in seconds, the exposition
// unit every *_seconds histogram uses.
func (h *Histogram) ObserveSeconds(nanos int64) {
	h.Observe(float64(nanos) / 1e9)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindFunc // callback-backed gauge or counter
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one registered metric name: either a single unlabeled
// metric or a vec of labeled children.
type family struct {
	name   string
	help   string
	kind   metricKind
	typstr string // overrides kind.String() when set (counter funcs)

	// Exactly one of the following is populated.
	counter *Counter
	hist    *Histogram
	fn      func() float64

	// Vec state: label names plus labeled children.
	labels   []string
	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	labelValues []string
	counter     *Counter
	hist        *Histogram
}

// Registry is a set of named metrics with Prometheus text exposition.
// Registration is get-or-create by name: asking twice for the same
// counter returns the same counter, so package-level instrumentation in
// engine/pool/jobs can share the process-wide Default registry without
// double-registration errors. A name registered as one kind cannot be
// re-registered as another (that panics — a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry: monotone rates and totals that
// aggregate naturally across sessions and servers. Instantaneous
// per-server state (queue depths, cache sizes) belongs in a per-server
// Registry instead, so concurrent servers in one process don't fight
// over one gauge.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind = name, help, kind
	r.families[name] = f
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, func() *family {
		return &family{counter: &Counter{}}
	})
	return f.counter
}

// GaugeFunc registers a callback-backed gauge: fn is evaluated at
// scrape time. It must be fast and must never block on work the scrape
// itself could be queued behind (admission pools, job execution).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindFunc, func() *family {
		return &family{fn: fn, typstr: "gauge"}
	})
}

// CounterFunc registers a callback-backed monotone total, for counters
// whose source of truth lives elsewhere (e.g. the serve layer's shed
// count). The same scrape-time constraints as GaugeFunc apply.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindFunc, func() *family {
		return &family{fn: fn, typstr: "counter"}
	})
}

// Histogram returns the named histogram, creating it on first use with
// the given upper bounds (nil selects DurationBuckets). Bounds are
// fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, func() *family {
		return &family{hist: newHistogram(buckets)}
	})
	return f.hist
}

// CounterVec returns the named labeled-counter family. Label names —
// like every label argument in the tree — must be compile-time
// constants; the obslabel analyzer enforces it, which is what bounds
// exposition cardinality at build time.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, kindCounter, func() *family {
		return &family{labels: append([]string(nil), labels...), children: make(map[string]*child)}
	})
	return &CounterVec{f: f}
}

// HistogramVec returns the named labeled-histogram family (nil buckets
// selects DurationBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.family(name, help, kindHistogram, func() *family {
		return &family{
			labels:   append([]string(nil), labels...),
			children: make(map[string]*child),
			hist:     newHistogram(buckets), // bucket template for children
		}
	})
	return &HistogramVec{f: f}
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	f *family
}

// With returns the child counter for the given label values, creating
// it on first use. Resolve children once, at package or server init —
// never per request — and pass only compile-time-constant values
// (obslabel rejects anything else).
func (v *CounterVec) With(values ...string) *Counter {
	c := v.f.child(values)
	return c.counter
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	f *family
}

// With returns the child histogram for the given label values, creating
// it on first use. The same resolve-once, constants-only contract as
// CounterVec.With applies.
func (v *HistogramVec) With(values ...string) *Histogram {
	c := v.f.child(values)
	return c.hist
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindHistogram:
		c.hist = newHistogram(f.hist.bounds)
	}
	f.children[key] = c
	return c
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (families sorted by name, children sorted by label
// values). The output order is deterministic for a fixed metric
// population.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(w)
	}
}

// WriteAll writes several registries' metrics as one exposition
// document — the /metrics endpoint merging the process-wide Default
// with a server's own gauges.
func WriteAll(w io.Writer, regs ...*Registry) {
	for _, r := range regs {
		r.WritePrometheus(w)
	}
}

func (f *family) write(w io.Writer) {
	typ := f.kind.String()
	if f.typstr != "" {
		typ = f.typstr
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)
	switch {
	case f.counter != nil:
		fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
	case f.fn != nil:
		fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
	case f.children != nil:
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kids := make([]*child, 0, len(keys))
		for _, k := range keys {
			kids = append(kids, f.children[k])
		}
		f.mu.Unlock()
		for _, c := range kids {
			labels := labelString(f.labels, c.labelValues)
			switch {
			case c.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.counter.Value())
			case c.hist != nil:
				writeHistogram(w, f.name, f.labels, c.labelValues, c.hist)
			}
		}
	case f.hist != nil:
		writeHistogram(w, f.name, nil, nil, f.hist)
	}
}

func writeHistogram(w io.Writer, name string, labels, values []string, h *Histogram) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(append(labels, "le"), append(values, formatFloat(b))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(append(labels, "le"), append(values, "+Inf")), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels, values), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values), h.Count())
}

func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
