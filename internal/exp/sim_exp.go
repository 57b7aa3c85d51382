package exp

import (
	"context"
	"fmt"
	"strings"

	"sunmap"
	"sunmap/internal/apps"
)

// DefaultRates is the injection-rate axis of Fig. 8(b).
var DefaultRates = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}

// netproc lists the 16-node networks of the NetProc study (Fig. 8b):
// column label, then topology name.
var netproc = [][2]string{
	{"mesh", "mesh-4x4"},
	{"torus", "torus-4x4"},
	{"clos", "clos-m4n4r4"},
	{"butterfly", "butterfly-4ary2fly"},
}

// Fig8bResult holds latency-vs-injection curves (Fig. 8b).
type Fig8bResult struct {
	Rates  []float64
	Curves map[string][]sunmap.SimRow
	Order  []string
}

// Fig8b reproduces the NetProc latency study: one adversarial-traffic
// simulate request per network, sweeping the rates.
func Fig8b(ctx context.Context, s *sunmap.Session, rates []float64) (*Fig8bResult, error) {
	if len(rates) == 0 {
		rates = DefaultRates
	}
	var reqs []sunmap.Request
	for _, n := range netproc {
		reqs = append(reqs, sunmap.Request{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
			Topology:      n[1],
			Pattern:       "adversarial",
			Rates:         rates,
			Seed:          7,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			DrainCycles:   6000,
		}})
	}
	reps, err := run(ctx, s, reqs...)
	if err != nil {
		return nil, err
	}
	out := &Fig8bResult{Rates: rates, Curves: make(map[string][]sunmap.SimRow)}
	for i, n := range netproc {
		out.Curves[n[0]] = reps[i].Simulate.Rows
		out.Order = append(out.Order, n[0])
	}
	return out, nil
}

// String renders the latency table (one column per topology).
func (r *Fig8bResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 8(b) - NetProc avg packet latency (cycles) vs injection rate, adversarial traffic\n")
	fmt.Fprintf(&sb, "%-6s", "rate")
	for _, n := range r.Order {
		fmt.Fprintf(&sb, " %12s", n)
	}
	sb.WriteString("\n")
	for i, rate := range r.Rates {
		fmt.Fprintf(&sb, "%-6.2f", rate)
		for _, n := range r.Order {
			st := r.Curves[n][i]
			cell := fmt.Sprintf("%.1f", st.AvgLatencyCycles)
			if st.Saturated {
				cell += "*"
			}
			fmt.Fprintf(&sb, " %12s", cell)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("(* saturated; paper: clos clearly outperforms the others at high injection)\n")
	return sb.String()
}

// Fig8cdResult holds the NetProc area/power comparison (Fig. 8c, 8d).
type Fig8cdResult struct {
	Rows []sunmap.TopologyRow
}

// Fig8cd reproduces the NetProc area/power bars with one select under
// the paper's relaxed (unconstrained) link bandwidth.
func Fig8cd(ctx context.Context, s *sunmap.Session) (*Fig8cdResult, error) {
	_, ds, err := selection(ctx, s, sunmap.SelectRequest{App: sunmap.AppSpec{Name: "netproc"}, Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay"}})
	if err != nil {
		return nil, err
	}
	return &Fig8cdResult{Rows: familyRows(ds)}, nil
}

// String renders the area/power table.
func (r *Fig8cdResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 8(c,d) - NetProc design area and power (relaxed bandwidth constraints)\n")
	fmt.Fprintf(&sb, "%-22s %9s %10s\n", "topology", "area mm2", "power mW")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %9.2f %10.1f\n", row.Topology, row.AreaMM2, row.PowerMW)
	}
	sb.WriteString("(paper: clos only slightly above butterfly on both)\n")
	return sb.String()
}

// dspSpec is the mapping of the DSP case study (Section 6.3).
var dspSpec = sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: apps.DSPCapacityMBps}

// Fig10Result holds the DSP case study (Fig. 10).
type Fig10Result struct {
	Best      string
	BestHops  float64
	Floorplan string
	// Latency per topology family under trace-driven simulation.
	Latency map[string]float64
	Order   []string
}

// Fig10 reproduces the DSP filter flow: one select, then one trace-driven
// simulate per family winner.
func Fig10(ctx context.Context, s *sunmap.Session) (*Fig10Result, error) {
	app := sunmap.AppSpec{Name: "dsp"}
	sel, ds, err := selection(ctx, s, sunmap.SelectRequest{App: app, Mapping: dspSpec})
	if err != nil {
		return nil, err
	}
	out := &Fig10Result{
		Best:     sel.Topology,
		BestHops: sel.Best.AvgHops,
		Latency:  make(map[string]float64),
	}
	for _, row := range sel.Rows {
		if fp := sel.Best.Floorplan; row.Topology == sel.Topology && fp != nil {
			out.Floorplan = fmt.Sprintf("chip %.2f x %.2f mm, %d switches\n", fp.ChipWMM, fp.ChipHMM, row.Switches)
		}
	}
	spec := dspSpec
	spec.Routing = sel.RoutingUsed
	var reqs []sunmap.Request
	for _, row := range familyRows(ds) {
		reqs = append(reqs, sunmap.Request{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
			Topology:      row.Topology,
			Pattern:       "trace",
			App:           &app,
			Mapping:       &spec,
			Rates:         []float64{0.15},
			Seed:          11,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			DrainCycles:   6000,
		}})
		out.Order = append(out.Order, row.Kind)
	}
	reps, err := run(ctx, s, reqs...)
	if err != nil {
		return nil, err
	}
	for i, kind := range out.Order {
		out.Latency[kind] = reps[i].Simulate.Rows[0].AvgLatencyCycles
	}
	return out, nil
}

// String renders the DSP study.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 10 - DSP filter case study\n")
	fmt.Fprintf(&sb, "selected topology: %s (avg hops %.2f); paper: butterfly with 3x3 switches\n", r.Best, r.BestHops)
	if r.Floorplan != "" {
		sb.WriteString("floorplan: " + r.Floorplan)
	}
	sb.WriteString("trace-driven avg packet latency (cycles):\n")
	for _, n := range r.Order {
		fmt.Fprintf(&sb, "  %-12s %8.1f\n", n, r.Latency[n])
	}
	sb.WriteString("(paper Fig 10c: butterfly has the minimum latency)\n")
	return sb.String()
}

// Fig11Result holds the generated SystemC artifact (Fig. 11's snapshot).
type Fig11Result struct {
	TopModule string
	Files     []string
	Sizes     map[string]int
}

// Fig11 generates the DSP SystemC artifact with one generate request;
// after Fig10 its selection is a pure session-cache hit.
func Fig11(ctx context.Context, s *sunmap.Session) (*Fig11Result, error) {
	reps, err := run(ctx, s, sunmap.Request{Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Mapping: dspSpec,
	}})
	if err != nil {
		return nil, err
	}
	gen := reps[0].Generate
	out := &Fig11Result{TopModule: gen.TopModule, Sizes: make(map[string]int)}
	for _, f := range gen.Files {
		out.Files = append(out.Files, f.Name)
		out.Sizes[f.Name] = len(f.Content)
	}
	return out, nil
}

// String lists the generated files.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 11 - generated SystemC design (cycle/signal-accurate model source)\n")
	fmt.Fprintf(&sb, "top module: %s\n", r.TopModule)
	for _, f := range r.Files {
		fmt.Fprintf(&sb, "  %-24s %6d bytes\n", f, r.Sizes[f])
	}
	return sb.String()
}
