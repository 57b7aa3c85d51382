package sunmap

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sunmap/internal/apps"
	"sunmap/internal/fault"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/tech"
)

// This file defines the serializable Request/Report schema of the Session
// API: every field is a plain Go value with stable JSON names, so a
// Request marshals, travels over the serve layer (or a job queue, or a
// config file) and decodes back without loss, and a Report is the exact
// JSON the `sunmap serve` front-end returns.

// Request ops understood by Session.Do and the serve layer.
const (
	OpSelect       = "select"
	OpMap          = "map"
	OpRoutingSweep = "routing-sweep"
	OpPareto       = "pareto"
	OpSimulate     = "simulate"
	OpGenerate     = "generate"
	OpFaultSweep   = "fault-sweep"
	OpSearch       = "search"
)

// CoreSpec is one IP block of an inline application graph.
type CoreSpec struct {
	Name      string  `json:"name"`
	AreaMM2   float64 `json:"area_mm2"`
	Soft      bool    `json:"soft,omitempty"`
	MinAspect float64 `json:"min_aspect,omitempty"`
	MaxAspect float64 `json:"max_aspect,omitempty"`
}

// FlowSpec is one directed bandwidth-weighted flow of an inline
// application graph.
type FlowSpec struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	MBps float64 `json:"mbps"`
}

// AppSpec names or embeds the application core graph of a request.
// Exactly one source must be given: Name (a built-in benchmark), Text
// (SUNMAP's text format, as accepted by LoadApp), or Cores+Flows (a
// structured inline graph; Label names it, defaulting to "app").
//
// The app's name/label also names any topologies synthesized for it
// (e.g. "synth-cluster4r4-mpeg4") in the scope of the Session that ran
// the request, where the newest registration of a name wins. Sessions
// never see each other's names. Within one synthesis-enabled session,
// give distinct inline apps distinct labels, or later by-name lookups
// (map/simulate a reported winner) may resolve a newer same-named app's
// topology. The evaluation cache itself is collision-proof — it keys on
// structural digests, not names.
type AppSpec struct {
	Name  string     `json:"name,omitempty"`
	Text  string     `json:"text,omitempty"`
	Label string     `json:"label,omitempty"`
	Cores []CoreSpec `json:"cores,omitempty"`
	Flows []FlowSpec `json:"flows,omitempty"`
}

// builtinApps holds one graph per built-in application name, built on
// first use and shared by every request of the process that names it, so
// its memoized digest and commodity lists are computed once. Nothing in
// the Session mutates a resolved graph; AppByName still hands callers a
// fresh one.
var builtinApps sync.Map // name -> *graph.CoreGraph

// resolve materializes the core graph an AppSpec describes.
func (a AppSpec) resolve() (*graph.CoreGraph, error) {
	sources := 0
	if a.Name != "" {
		sources++
	}
	if a.Text != "" {
		sources++
	}
	if len(a.Cores) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: app wants exactly one of name, text or cores (got %d sources)", ErrBadRequest, sources)
	}
	switch {
	case a.Name != "":
		if g, ok := builtinApps.Load(a.Name); ok {
			return g.(*graph.CoreGraph), nil
		}
		g, err := apps.ByName(a.Name)
		if err != nil {
			return nil, fmt.Errorf("%w %q (want one of %v)", ErrUnknownApp, a.Name, apps.Names())
		}
		shared, _ := builtinApps.LoadOrStore(a.Name, g)
		return shared.(*graph.CoreGraph), nil
	case a.Text != "":
		g, err := graph.Parse(strings.NewReader(a.Text))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		return g, nil
	default:
		label := a.Label
		if label == "" {
			label = "app"
		}
		g := graph.NewCoreGraph(label)
		for _, c := range a.Cores {
			if _, err := g.AddCore(graph.Core{
				Name: c.Name, AreaMM2: c.AreaMM2, Soft: c.Soft,
				MinAspect: c.MinAspect, MaxAspect: c.MaxAspect,
			}); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
			}
		}
		for _, f := range a.Flows {
			if err := g.Connect(f.From, f.To, f.MBps); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
			}
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		return g, nil
	}
}

// MapSpec configures one mapping run (Fig. 5 of the paper): routing
// function and objective by their paper abbreviations, technology node by
// name. Zero values select the defaults (MP routing, min-delay objective,
// the paper's 100nm node, unconstrained capacity/area).
type MapSpec struct {
	// Routing is "DO", "MP", "SM" or "SA" (default "MP").
	Routing string `json:"routing,omitempty"`
	// Objective is "delay", "area", "power" or "weighted" (default
	// "delay"); the min- prefixed spellings are also accepted.
	Objective   string  `json:"objective,omitempty"`
	WeightDelay float64 `json:"weight_delay,omitempty"`
	WeightArea  float64 `json:"weight_area,omitempty"`
	WeightPower float64 `json:"weight_power,omitempty"`
	// CapacityMBps is the uniform link capacity (0 = unconstrained).
	CapacityMBps float64 `json:"capacity_mbps,omitempty"`
	// MaxAreaMM2 bounds the floorplanned chip area (0 = unconstrained).
	MaxAreaMM2 float64 `json:"max_area_mm2,omitempty"`
	// MaxChipAspect bounds the chip aspect ratio (0 = unconstrained).
	MaxChipAspect float64 `json:"max_chip_aspect,omitempty"`
	// Tech names the technology node ("130nm", "100nm", "90nm", "65nm");
	// empty selects the paper's 0.1 µm point, "100nm".
	Tech string `json:"tech,omitempty"`
	// SwapPasses caps improvement passes (0 = iterate to convergence).
	SwapPasses int `json:"swap_passes,omitempty"`
	// Chunks is the traffic-splitting granularity for SM/SA.
	Chunks int `json:"chunks,omitempty"`
}

// options lowers the spec onto mapping.Options, filling empty fields with
// the defaults.
func (m MapSpec) options() (mapping.Options, error) {
	opts := mapping.Options{
		CapacityMBps:  m.CapacityMBps,
		MaxAreaMM2:    m.MaxAreaMM2,
		MaxChipAspect: m.MaxChipAspect,
		SwapPasses:    m.SwapPasses,
		Chunks:        m.Chunks,
		Tech:          tech.Tech100nm(),
	}
	if m.Routing != "" {
		fn, err := route.ParseFunction(m.Routing)
		if err != nil {
			return opts, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		opts.Routing = fn
	} else {
		opts.Routing = route.MinPath
	}
	switch strings.TrimPrefix(m.Objective, "min-") {
	case "", "delay":
		opts.Objective = mapping.MinDelay
	case "area":
		opts.Objective = mapping.MinArea
	case "power":
		opts.Objective = mapping.MinPower
	case "weighted":
		opts.Objective = mapping.Weighted
		opts.Weights = mapping.Weights{Delay: m.WeightDelay, Area: m.WeightArea, Power: m.WeightPower}
		if !usableWeights(m.WeightDelay, m.WeightArea, m.WeightPower) {
			return opts, fmt.Errorf("%w: weights delay=%g area=%g power=%g: each must be finite and >= 0, and one > 0",
				ErrBadRequest, m.WeightDelay, m.WeightArea, m.WeightPower)
		}
	default:
		return opts, fmt.Errorf("%w: unknown objective %q (want delay, area, power or weighted)", ErrBadRequest, m.Objective)
	}
	if m.Tech != "" {
		tc, err := tech.ByName(m.Tech)
		if err != nil {
			return opts, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		opts.Tech = tc
	}
	return opts, nil
}

// usableWeights reports whether weighted-objective weights define a
// bounded minimization: every weight finite and non-negative, and at
// least one positive.
func usableWeights(ws ...float64) bool {
	positive := false
	for _, w := range ws {
		if !(w >= 0) || math.IsInf(w, 1) {
			return false
		}
		positive = positive || w > 0
	}
	return positive
}

// SynthSpec is the serializable form of SynthOptions.
type SynthSpec struct {
	MaxRadix     int   `json:"max_radix,omitempty"`
	ClusterSizes []int `json:"cluster_sizes,omitempty"`
}

func (s SynthSpec) options() synth.Options {
	return synth.Options{MaxRadix: s.MaxRadix, ClusterSizes: s.ClusterSizes}
}

// FaultSpec parameterizes a failure model: the scenario enumeration of a
// fault sweep, the reliability axis of a fault-aware selection or Pareto
// exploration.
type FaultSpec struct {
	// K is the number of simultaneous element failures (default 1).
	// Scenarios are enumerated exhaustively for k <= 2 and drawn by
	// deterministic Monte Carlo sampling above that.
	K int `json:"k,omitempty"`
	// Elements picks what can fail: "links" (physical channels — both
	// directions together; the default), "switches" (all incident links
	// plus any attached cores) or "both".
	Elements string `json:"elements,omitempty"`
	// Samples is the Monte Carlo scenario count when sampling
	// (default 2048).
	Samples int `json:"samples,omitempty"`
	// Seed drives the scenario sampling; a given seed always draws the
	// same scenarios.
	Seed int64 `json:"seed,omitempty"`
	// ForceSampling draws Monte Carlo scenarios even when k <= 2 would
	// enumerate exhaustively.
	ForceSampling bool `json:"force_sampling,omitempty"`
	// ReliabilityWeight scales the reliability term when the spec drives
	// a selection: feasible candidates rank by
	// cost/bestCost + w·(1 − survivability). 0 selects 1.
	ReliabilityWeight float64 `json:"reliability_weight,omitempty"`
}

// model lowers the spec onto the fault subsystem's Model.
func (f FaultSpec) model() (fault.Model, error) {
	if f.K < 0 {
		return fault.Model{}, fmt.Errorf("%w: negative fault k %d", ErrBadRequest, f.K)
	}
	if f.Samples < 0 {
		return fault.Model{}, fmt.Errorf("%w: negative fault samples %d", ErrBadRequest, f.Samples)
	}
	el, err := fault.ParseElements(f.Elements)
	if err != nil {
		return fault.Model{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return fault.Model{
		K:             f.K,
		Elements:      el,
		Samples:       f.Samples,
		Seed:          f.Seed,
		ForceSampling: f.ForceSampling,
	}, nil
}

// SelectRequest asks for a full two-phase topology selection.
type SelectRequest struct {
	App     AppSpec `json:"app"`
	Mapping MapSpec `json:"mapping"`
	// Escalate retries with more flexible routing (MP -> SM -> SA) when
	// nothing is feasible (Section 6.1).
	Escalate bool `json:"escalate,omitempty"`
	// Synth overrides the session's synthesis options for this request
	// (nil inherits WithSynth).
	Synth *SynthSpec `json:"synth,omitempty"`
	// Fault adds a reliability axis to the selection: every feasible
	// candidate is swept under the failure model and Phase 2 ranks by
	// the fault-aware composite score (nil inherits WithFault).
	Fault *FaultSpec `json:"fault,omitempty"`
}

// MapRequest asks for one mapping onto a named topology.
type MapRequest struct {
	App      AppSpec `json:"app"`
	Topology string  `json:"topology"`
	Mapping  MapSpec `json:"mapping"`
}

// SweepRequest asks for the per-routing-function minimum-bandwidth sweep
// of Fig. 9(a).
type SweepRequest struct {
	App      AppSpec `json:"app"`
	Topology string  `json:"topology"`
	Mapping  MapSpec `json:"mapping"`
}

// ParetoRequest asks for the area-power design-space exploration of
// Fig. 9(b). Steps controls the weight-grid resolution (0 or 1 selects
// the default 5; at most 40).
// With Fault set (or inherited from WithFault), every design point also
// carries its survivability and the front is marked in the
// three-objective (area, power, survivability) space.
type ParetoRequest struct {
	App      AppSpec    `json:"app"`
	Topology string     `json:"topology"`
	Mapping  MapSpec    `json:"mapping"`
	Steps    int        `json:"steps,omitempty"`
	Fault    *FaultSpec `json:"fault,omitempty"`
}

// FaultSweepRequest asks for the survivability analysis of one mapped
// design: the application is mapped onto the named topology (through the
// session cache, like OpMap), then every failure scenario of the fault
// model is rerouted in degraded mode and aggregated into a FaultReport.
type FaultSweepRequest struct {
	App      AppSpec   `json:"app"`
	Topology string    `json:"topology"`
	Mapping  MapSpec   `json:"mapping"`
	Fault    FaultSpec `json:"fault"`
	// SimRate, when > 0 (flits/cycle/terminal), additionally injects the
	// worst-case connected failure scenario into the cycle-accurate
	// simulator mid-measurement — trace traffic over the optimized
	// mapping, degraded routes installed at the fault — and reports
	// delivered throughput before and after the fault.
	SimRate float64 `json:"sim_rate,omitempty"`
	// SimCycle overrides the fault-injection cycle (default: midway
	// through the measurement window). It must land strictly inside that
	// window — (1000, 5000) under the simulator's default 1000 warm-up
	// and 4000 measured cycles.
	SimCycle int `json:"sim_cycle,omitempty"`
}

// SimRequest asks for cycle-accurate simulation of a topology across one
// or more injection rates.
type SimRequest struct {
	Topology string `json:"topology"`
	// Pattern is "uniform", "transpose", "tornado", "bit-complement",
	// "bit-reverse", "shuffle", "hotspot", "adversarial" or "trace"
	// (default "uniform"). "trace" replays the App's flows over its
	// optimized mapping onto Topology (the Fig. 10c methodology) and
	// requires App; Mapping then tunes that mapping.
	Pattern string `json:"pattern,omitempty"`
	// HotspotNode is the "hotspot" pattern's target terminal, in
	// [0, the topology's terminal count). HotspotFrac is the share of
	// packets sent to it, in [0, 1]; 0 picks the default 0.3.
	HotspotNode int     `json:"hotspot_node,omitempty"`
	HotspotFrac float64 `json:"hotspot_frac,omitempty"`
	// Rates lists the injection rates (flits/cycle/terminal) to sweep.
	Rates         []float64 `json:"rates"`
	PacketFlits   int       `json:"packet_flits,omitempty"`
	BufDepthFlits int       `json:"buf_depth_flits,omitempty"`
	ChannelDelay  int       `json:"channel_delay,omitempty"`
	RouterDelay   int       `json:"router_delay,omitempty"`
	WarmupCycles  int       `json:"warmup_cycles,omitempty"`
	MeasureCycles int       `json:"measure_cycles,omitempty"`
	DrainCycles   int       `json:"drain_cycles,omitempty"`
	Seed          int64     `json:"seed,omitempty"`
	App           *AppSpec  `json:"app,omitempty"`
	Mapping       *MapSpec  `json:"mapping,omitempty"`
}

// SearchOptions tunes the simulated-annealing topology search of an
// OpSearch Request. Zero values select the defaults.
type SearchOptions struct {
	// Budget is the total candidate-evaluation count across all annealing
	// chains (default 20000). The budget fixes the iteration count
	// exactly, so a (seed, budget) pair always explores the same
	// candidate sequence.
	Budget int `json:"budget,omitempty"`
	// Restarts is the number of independent annealing chains (default 4).
	Restarts int `json:"restarts,omitempty"`
	// Seed drives all search randomness.
	Seed int64 `json:"seed,omitempty"`
	// MaxRadix caps inter-router links per switch (default 4, min 2).
	MaxRadix int `json:"max_radix,omitempty"`
	// MaxCoresPerSwitch caps terminals per switch (default 4, min 1).
	MaxCoresPerSwitch int `json:"max_cores_per_switch,omitempty"`
	// MaxSwitches caps the router count (default: the core count).
	MaxSwitches int `json:"max_switches,omitempty"`
}

// SearchRequest asks the annealing engine to discover an
// application-specific topology under the mapping options' capacity and
// objective. The winner is registered in the session's topology scope, so
// follow-up map/simulate/fault-sweep requests on the same session can
// address it by the reported name. With Fault set, chain winners are
// additionally scored for survivability and ranked by the composite
// reliability score.
type SearchRequest struct {
	App     AppSpec       `json:"app"`
	Mapping MapSpec       `json:"mapping"`
	Search  SearchOptions `json:"search"`
	Fault   *FaultSpec    `json:"fault,omitempty"`
}

// GenerateRequest asks for the SystemC description of a mapped design
// (Phase 3). With Topology empty, a full selection picks the network
// first (honoring Escalate); otherwise the app is mapped onto the named
// topology.
type GenerateRequest struct {
	App      AppSpec `json:"app"`
	Topology string  `json:"topology,omitempty"`
	Mapping  MapSpec `json:"mapping"`
	Escalate bool    `json:"escalate,omitempty"`
}

// Request is the serializable union Session.Do, Session.Batch and the
// serve layer consume: Op picks the operation, and exactly the matching
// payload field must be set.
type Request struct {
	// ID is an opaque correlation tag echoed into the Report.
	ID string `json:"id,omitempty"`
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// TimeoutMS bounds this request's processing time (0 = no per-request
	// limit beyond the batch context and the serve layer's default).
	TimeoutMS int `json:"timeout_ms,omitempty"`

	Select       *SelectRequest     `json:"select,omitempty"`
	Map          *MapRequest        `json:"map,omitempty"`
	RoutingSweep *SweepRequest      `json:"routing_sweep,omitempty"`
	Pareto       *ParetoRequest     `json:"pareto,omitempty"`
	Simulate     *SimRequest        `json:"simulate,omitempty"`
	Generate     *GenerateRequest   `json:"generate,omitempty"`
	FaultSweep   *FaultSweepRequest `json:"fault_sweep,omitempty"`
	Search       *SearchRequest     `json:"search,omitempty"`
}

// opCall is one dispatch of a validated Request (cp may be nil).
type opCall struct {
	s   *Session
	req *Request
	rep *Report
	cp  *SearchCheckpoints
}

// opEntry is one op's row of the table behind Validate, Do's dispatch and
// the per-op metrics: payload presence, the run into the Report, and the
// op's sunmap_op_* children, resolved with constant labels (obslabel).
type opEntry struct {
	has     func(*Request) bool
	run     func(context.Context, opCall) error
	seconds *obs.Histogram
	ok, err *obs.Counter
}

var ops = map[string]opEntry{
	OpSelect: {func(r *Request) bool { return r.Select != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Select, err = c.s.Select(ctx, *c.req.Select)
		return err
	}, opSeconds.With(OpSelect), opTotal.With(OpSelect, "ok"), opTotal.With(OpSelect, "error")},
	OpMap: {func(r *Request) bool { return r.Map != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Map, err = c.s.Map(ctx, *c.req.Map)
		return err
	}, opSeconds.With(OpMap), opTotal.With(OpMap, "ok"), opTotal.With(OpMap, "error")},
	OpRoutingSweep: {func(r *Request) bool { return r.RoutingSweep != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.RoutingSweep, err = c.s.RoutingSweep(ctx, *c.req.RoutingSweep)
		return err
	}, opSeconds.With(OpRoutingSweep), opTotal.With(OpRoutingSweep, "ok"), opTotal.With(OpRoutingSweep, "error")},
	OpPareto: {func(r *Request) bool { return r.Pareto != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Pareto, err = c.s.ParetoExplore(ctx, *c.req.Pareto)
		return err
	}, opSeconds.With(OpPareto), opTotal.With(OpPareto, "ok"), opTotal.With(OpPareto, "error")},
	OpSimulate: {func(r *Request) bool { return r.Simulate != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Simulate, err = c.s.Simulate(ctx, *c.req.Simulate)
		return err
	}, opSeconds.With(OpSimulate), opTotal.With(OpSimulate, "ok"), opTotal.With(OpSimulate, "error")},
	OpGenerate: {func(r *Request) bool { return r.Generate != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Generate, err = c.s.Generate(ctx, *c.req.Generate)
		return err
	}, opSeconds.With(OpGenerate), opTotal.With(OpGenerate, "ok"), opTotal.With(OpGenerate, "error")},
	OpFaultSweep: {func(r *Request) bool { return r.FaultSweep != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.FaultSweep, err = c.s.FaultSweep(ctx, *c.req.FaultSweep)
		return err
	}, opSeconds.With(OpFaultSweep), opTotal.With(OpFaultSweep, "ok"), opTotal.With(OpFaultSweep, "error")},
	OpSearch: {func(r *Request) bool { return r.Search != nil }, func(ctx context.Context, c opCall) (err error) {
		c.rep.Search, err = c.s.SearchCheckpointed(ctx, *c.req.Search, c.cp)
		return err
	}, opSeconds.With(OpSearch), opTotal.With(OpSearch, "ok"), opTotal.With(OpSearch, "error")},
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow; anything above it would wrap negative and expire at once.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// Validate checks the op tag, payload shape and timeout; violations wrap
// ErrBadRequest.
func (r *Request) Validate() error {
	set := 0
	for _, op := range ops {
		if op.has(r) {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("%w: want exactly one payload, got %d", ErrBadRequest, set)
	}
	op, ok := ops[r.Op]
	if !ok {
		return fmt.Errorf("%w: unknown op %q", ErrBadRequest, r.Op)
	}
	if !op.has(r) {
		return fmt.Errorf("%w: op %q without matching payload", ErrBadRequest, r.Op)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrBadRequest, r.TimeoutMS)
	}
	if int64(r.TimeoutMS) > maxTimeoutMS {
		return fmt.Errorf("%w: timeout_ms %d exceeds %d", ErrBadRequest, r.TimeoutMS, maxTimeoutMS)
	}
	return nil
}

// ParseRequest strictly decodes one Request from JSON (unknown fields
// and trailing data are rejected) and validates it. Decode and
// validation failures wrap ErrBadRequest.
func ParseRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if err := expectEOF(dec); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// expectEOF rejects bytes after the first JSON value — the other half of
// the strict-decoding contract.
func expectEOF(dec *json.Decoder) error {
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("%w: trailing data after JSON value", ErrBadRequest)
	}
	return nil
}

// Error kinds recorded in Report.ErrorKind, so wire consumers can branch
// without parsing error strings (the serve layer maps them to HTTP
// statuses).
const (
	ErrorKindBadRequest = "bad_request"
	ErrorKindInfeasible = "infeasible"
	ErrorKindCanceled   = "canceled"
	ErrorKindInternal   = "internal"
)

// Report is the serializable outcome of one Request: the payload field
// matching Op is set on success; Error/ErrorKind record failures. An
// infeasible selection carries both the error and the evaluated Select
// report, so clients can still inspect the candidate table.
type Report struct {
	ID    string `json:"id,omitempty"`
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`
	// ErrorKind is one of the ErrorKind* constants when Error is set.
	ErrorKind string `json:"error_kind,omitempty"`

	Select       *SelectReport   `json:"select,omitempty"`
	Map          *DesignReport   `json:"map,omitempty"`
	RoutingSweep *SweepReport    `json:"routing_sweep,omitempty"`
	Pareto       *ParetoReport   `json:"pareto,omitempty"`
	Simulate     *SimReport      `json:"simulate,omitempty"`
	Generate     *GenerateReport `json:"generate,omitempty"`
	FaultSweep   *FaultReport    `json:"fault_sweep,omitempty"`
	Search       *SearchReport   `json:"search,omitempty"`
}

// ParseReport strictly decodes one Report from JSON (unknown fields and
// trailing data are rejected).
func ParseReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("sunmap: report: %w", err)
	}
	if err := expectEOF(dec); err != nil {
		return nil, fmt.Errorf("sunmap: report: %w", err)
	}
	return &r, nil
}

// Err reconstructs a Go error from a failed Report, wrapping the matching
// sentinel so errors.Is works across the wire; a successful Report
// returns nil. The canceled kind covers both cancellation and deadline
// expiry on the server and unwraps to context.Canceled.
func (r *Report) Err() error {
	if r.Error == "" {
		return nil
	}
	switch r.ErrorKind {
	case ErrorKindBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, r.Error)
	case ErrorKindInfeasible:
		return fmt.Errorf("%w: %s", ErrInfeasible, r.Error)
	case ErrorKindCanceled:
		return fmt.Errorf("%w: %s", context.Canceled, r.Error)
	default:
		return fmt.Errorf("%w: %s", ErrInternal, r.Error)
	}
}

// TopologyRow is one per-candidate line of a SelectReport.
type TopologyRow struct {
	Topology    string  `json:"topology"`
	Kind        string  `json:"kind"`
	AvgHops     float64 `json:"avg_hops"`
	AreaMM2     float64 `json:"area_mm2"`
	PowerMW     float64 `json:"power_mw"`
	Switches    int     `json:"switches"`
	Links       int     `json:"links"`
	MaxLoadMBps float64 `json:"max_load_mbps"`
	Feasible    bool    `json:"feasible"`
	// Survivability is the candidate's reliability score under the
	// request's fault model; nil when the selection ran without one.
	Survivability *float64 `json:"survivability,omitempty"`
}

// AssignRow records where one core landed, in core-graph order.
type AssignRow struct {
	Core     string `json:"core"`
	Terminal int    `json:"terminal"`
	Router   int    `json:"router"`
}

// BlockRow is one placed block of a floorplan.
type BlockRow struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	W    float64 `json:"w"`
	H    float64 `json:"h"`
}

// FloorplanReport is the exact LP floorplan of a mapped design.
type FloorplanReport struct {
	ChipWMM float64    `json:"chip_w_mm"`
	ChipHMM float64    `json:"chip_h_mm"`
	Blocks  []BlockRow `json:"blocks"`
}

// DesignReport is one mapped, evaluated design point, and the payload of
// an OpMap Report.
type DesignReport struct {
	Topology        string           `json:"topology"`
	AvgHops         float64          `json:"avg_hops"`
	DesignAreaMM2   float64          `json:"design_area_mm2"`
	ChipAreaMM2     float64          `json:"chip_area_mm2"`
	NetworkAreaMM2  float64          `json:"network_area_mm2"`
	PowerMW         float64          `json:"power_mw"`
	MaxLinkLoadMBps float64          `json:"max_link_load_mbps"`
	Cost            float64          `json:"cost"`
	BandwidthOK     bool             `json:"bandwidth_ok"`
	AreaOK          bool             `json:"area_ok"`
	AspectOK        bool             `json:"aspect_ok"`
	Feasible        bool             `json:"feasible"`
	SwapsApplied    int              `json:"swaps_applied"`
	Assign          []AssignRow      `json:"assign,omitempty"`
	Floorplan       *FloorplanReport `json:"floorplan,omitempty"`
}

// SelectReport is the outcome of an OpSelect Request.
type SelectReport struct {
	App string `json:"app"`
	// Topology names the selected network ("" when nothing feasible).
	Topology    string `json:"topology,omitempty"`
	RoutingUsed string `json:"routing_used"`
	Candidates  int    `json:"candidates"`
	Feasible    int    `json:"feasible"`
	Synthesized int    `json:"synthesized,omitempty"`
	// Rows is the per-candidate comparison table, sorted by kind then name.
	Rows []TopologyRow `json:"rows"`
	// Best details the chosen design (nil when nothing feasible).
	Best *DesignReport `json:"best,omitempty"`
}

// SweepRow is one routing function's bar of Fig. 9(a).
type SweepRow struct {
	Function      string  `json:"function"`
	RequiredMBps  float64 `json:"required_mbps"`
	AvgHops       float64 `json:"avg_hops"`
	FeasibleAtCap bool    `json:"feasible_at_cap"`
}

// SweepReport is the outcome of an OpRoutingSweep Request. FeasibleAtCap
// is judged against CapacityMBps (the request capacity, defaulting to 500
// when unset, matching the paper's video experiments).
type SweepReport struct {
	App          string     `json:"app"`
	Topology     string     `json:"topology"`
	CapacityMBps float64    `json:"capacity_mbps"`
	Rows         []SweepRow `json:"rows"`
}

// ParetoPointRow is one design point of Fig. 9(b).
type ParetoPointRow struct {
	WeightDelay float64 `json:"weight_delay"`
	WeightArea  float64 `json:"weight_area"`
	WeightPower float64 `json:"weight_power"`
	AreaMM2     float64 `json:"area_mm2"`
	PowerMW     float64 `json:"power_mw"`
	AvgHops     float64 `json:"avg_hops"`
	Dominant    bool    `json:"dominant"`
	// Survivability is the point's reliability score under the request's
	// fault model; nil when the exploration ran without one (Dominant is
	// then two-objective).
	Survivability *float64 `json:"survivability,omitempty"`
}

// ParetoReport is the outcome of an OpPareto Request.
type ParetoReport struct {
	App      string           `json:"app"`
	Topology string           `json:"topology"`
	Points   []ParetoPointRow `json:"points"`
}

// SimRow is one injection rate's simulation outcome.
type SimRow struct {
	Rate              float64 `json:"rate"`
	AvgLatencyCycles  float64 `json:"avg_latency_cycles"`
	P95LatencyCycles  float64 `json:"p95_latency_cycles"`
	ThroughputFPC     float64 `json:"throughput_fpc"`
	MeasuredPackets   int     `json:"measured_packets"`
	UnfinishedPackets int     `json:"unfinished_packets"`
	Saturated         bool    `json:"saturated"`
}

// SimReport is the outcome of an OpSimulate Request. Pattern is the
// resolved pattern name (e.g. "adversarial" resolves to the topology's
// concrete stress pattern).
type SimReport struct {
	Topology string   `json:"topology"`
	Pattern  string   `json:"pattern"`
	Rows     []SimRow `json:"rows"`
}

// FaultSimReport is the cycle-accurate half of a fault sweep: delivered
// throughput before and after a mid-run failure injection.
type FaultSimReport struct {
	// Rate is the injection rate (flits/cycle/terminal); FaultCycle the
	// absolute cycle the FailedLinks went down.
	Rate        float64 `json:"rate"`
	FaultCycle  int     `json:"fault_cycle"`
	FailedLinks []int   `json:"failed_links"`
	// Rerouted marks that a degraded-mode route table was installed at
	// the fault cycle (packets injected after it avoid the failure).
	Rerouted bool `json:"rerouted"`
	// Delivered flits per cycle per terminal over the measurement cycles
	// before and from the fault.
	PreFaultFPC  float64 `json:"pre_fault_fpc"`
	PostFaultFPC float64 `json:"post_fault_fpc"`
	// Whole-run statistics (the fault makes Saturated/Unfinished the
	// interesting ones: stranded packets never drain).
	AvgLatencyCycles  float64 `json:"avg_latency_cycles"`
	MeasuredPackets   int     `json:"measured_packets"`
	UnfinishedPackets int     `json:"unfinished_packets"`
	Saturated         bool    `json:"saturated"`
}

// FaultReport is the outcome of an OpFaultSweep Request: the design's
// survivability under the failure model, with degradation measured
// against the fault-free baseline of the same degraded-mode rerouting.
type FaultReport struct {
	App      string `json:"app"`
	Topology string `json:"topology"`
	// Routing is the degraded-mode rerouting function the sweep used
	// (MP for single-path designs, SA for splitting ones).
	Routing  string `json:"routing"`
	K        int    `json:"k"`
	Elements string `json:"elements"`
	// Scenarios counts evaluated failure scenarios; Exhaustive marks a
	// complete k-subset enumeration rather than a Monte Carlo draw.
	Scenarios  int  `json:"scenarios"`
	Exhaustive bool `json:"exhaustive"`
	// Survivability is the fraction of scenarios the design survives
	// (connected and bandwidth-feasible); ConnectedFrac ignores the
	// capacity check.
	Survivability float64 `json:"survivability"`
	ConnectedFrac float64 `json:"connected_frac"`
	// Degradation: rerouted max link load and bandwidth-weighted hop
	// count — baseline (no fault), worst case and expectation over the
	// connected scenarios.
	BaselineMaxLoadMBps float64 `json:"baseline_max_load_mbps"`
	WorstMaxLoadMBps    float64 `json:"worst_max_load_mbps"`
	ExpectedMaxLoadMBps float64 `json:"expected_max_load_mbps"`
	BaselineAvgHops     float64 `json:"baseline_avg_hops"`
	WorstAvgHops        float64 `json:"worst_avg_hops"`
	ExpectedAvgHops     float64 `json:"expected_avg_hops"`
	// WorstLinks/WorstSwitches identify the connected scenario with the
	// highest rerouted link load; DisconnectingLinks/Switches the first
	// scenario that cut a commodity off (absent when none did).
	WorstLinks            []int `json:"worst_links,omitempty"`
	WorstSwitches         []int `json:"worst_switches,omitempty"`
	DisconnectingLinks    []int `json:"disconnecting_links,omitempty"`
	DisconnectingSwitches []int `json:"disconnecting_switches,omitempty"`
	// Sim carries the optional cycle-accurate fault injection (SimRate
	// > 0 and at least one connected scenario).
	Sim *FaultSimReport `json:"sim,omitempty"`
}

// SearchReport is the outcome of an OpSearch Request: the machine-
// discovered topology, the search statistics backing its determinism
// contract, and the full mapped evaluation of the winner. The discovered
// topology is registered in the session's scope under Topology, so
// follow-up requests (map, fault_sweep, generate …) in the same session
// can name it like any library network.
type SearchReport struct {
	App string `json:"app"`
	// Topology is the session-scoped name of the discovered network,
	// stable for a fixed (app, seed) pair at any parallelism.
	Topology string `json:"topology"`
	Seed     int64  `json:"seed"`
	Budget   int    `json:"budget"`
	// Evaluations counts candidate evaluations actually charged against
	// the budget across all chains; Accepted the annealer's accepted
	// moves; Chains the number of independent restarts folded.
	Evaluations int `json:"evaluations"`
	Accepted    int `json:"accepted"`
	Chains      int `json:"chains"`
	// Structure of the winner: switch count, directed channel count, and
	// the normalized bidirectional link list (each pair u<v).
	Routers int      `json:"routers"`
	Links   int      `json:"links"`
	BiLinks [][2]int `json:"bilinks"`
	// Fitness is the annealer's internal score of the winner (routing
	// cost plus structural terms); Best is its full mapped evaluation.
	Fitness float64       `json:"fitness"`
	Best    *DesignReport `json:"best"`
	// Survivability is the winner's score under the request's fault
	// model; nil when the search ran without one.
	Survivability *float64 `json:"survivability,omitempty"`
}

// GeneratedFile is one emitted SystemC source file.
type GeneratedFile struct {
	Name    string `json:"name"`
	Content string `json:"content"`
}

// GenerateReport is the outcome of an OpGenerate Request: the ×pipes-style
// SystemC sources of the mapped design, in sorted name order.
type GenerateReport struct {
	App       string          `json:"app"`
	Topology  string          `json:"topology"`
	TopModule string          `json:"top_module"`
	Files     []GeneratedFile `json:"files"`
}

// WriteTo materializes the generated files under dir, creating it if
// needed. File names are untrusted wire data (a Report may come from a
// remote server), so anything but a plain local name — separators,
// "..", absolute paths — is rejected before touching the filesystem.
func (g *GenerateReport) WriteTo(dir string) error {
	for _, f := range g.Files {
		if f.Name == "" || strings.ContainsAny(f.Name, `/\`) || !filepath.IsLocal(f.Name) {
			return fmt.Errorf("%w: refusing to write generated file with unsafe name %q", ErrBadRequest, f.Name)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range g.Files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
