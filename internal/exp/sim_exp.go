package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sunmap/internal/apps"
	"sunmap/internal/core"
	"sunmap/internal/engine"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/sim"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
	"sunmap/internal/xpipes"
)

// DefaultRates is the injection-rate axis of Fig. 8(b).
var DefaultRates = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}

// netprocTopologies builds the 16-node networks of the NetProc study.
func netprocTopologies() (map[string]topology.Topology, []string, error) {
	mk := func(t topology.Topology, err error) (topology.Topology, error) { return t, err }
	out := make(map[string]topology.Topology)
	order := []string{"mesh", "torus", "clos", "butterfly"}
	var err error
	if out["mesh"], err = mk(topology.NewMesh(4, 4)); err != nil {
		return nil, nil, err
	}
	if out["torus"], err = mk(topology.NewTorus(4, 4)); err != nil {
		return nil, nil, err
	}
	if out["clos"], err = mk(topology.NewClos(4, 4, 4)); err != nil {
		return nil, nil, err
	}
	if out["butterfly"], err = mk(topology.NewButterfly(4, 2)); err != nil {
		return nil, nil, err
	}
	return out, order, nil
}

// Fig8bResult holds latency-vs-injection curves (Fig. 8b).
type Fig8bResult struct {
	Rates  []float64
	Curves map[string][]*sim.Stats
	Order  []string
}

// Fig8b reproduces the NetProc latency study on the runner's engine: the
// simulations of every (topology, rate) pair are the units of one
// engine.Fan.
func (r Runner) Fig8b(ctx context.Context, rates []float64) (*Fig8bResult, error) {
	if len(rates) == 0 {
		rates = DefaultRates
	}
	topos, order, err := netprocTopologies()
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, len(order))
	for t, name := range order {
		topo := topos[name]
		rt, err := sim.BuildRoutes(topo)
		if err != nil {
			return nil, err
		}
		cfgs[t] = sim.Config{
			Topo:          topo,
			Routes:        rt,
			Pattern:       traffic.Adversarial(topo),
			Seed:          7,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			DrainCycles:   6000,
		}
	}
	stats := make([]*sim.Stats, len(order)*len(rates))
	err = engine.Fan(ctx, len(stats), engine.Options{Parallelism: r.Parallelism}, func(ctx context.Context, u int) error {
		cfg := cfgs[u/len(rates)]
		cfg.InjectionRate = rates[u%len(rates)]
		st, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("sim: %s at rate %g: %w", order[u/len(rates)], cfg.InjectionRate, err)
		}
		stats[u] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig8bResult{Rates: rates, Curves: make(map[string][]*sim.Stats), Order: order}
	for t, name := range order {
		out.Curves[name] = stats[t*len(rates) : (t+1)*len(rates) : (t+1)*len(rates)]
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
	Rows []Row
}

// Fig8cd reproduces the NetProc area/power bars on the runner's engine.
func (r Runner) Fig8cd(ctx context.Context) (*Fig8cdResult, error) {
	sel, err := core.SelectContext(ctx, r.selectConfig(core.Config{
		App: apps.NetProc(),
		Mapping: mapping.Options{
			Routing:   route.MinPath,
			Objective: mapping.MinDelay,
			// Relaxed bandwidth constraints per the paper.
			CapacityMBps: 0,
		},
	}))
	if err != nil {
		return nil, err
	}
	out := &Fig8cdResult{}
	best := sel.BestPerKind()
	for _, k := range kindOrder {
		if r, ok := best[k]; ok {
			out.Rows = append(out.Rows, rowFromResult(r))
		}
	}
	return out, nil
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

// Fig10Result holds the DSP case study (Fig. 10).
type Fig10Result struct {
	Best      string
	BestHops  float64
	Floorplan string
	// Latency per topology family under trace-driven simulation.
	Latency map[string]float64
	Order   []string
}

// Fig10 reproduces the DSP filter flow on the runner's engine.
func (r Runner) Fig10(ctx context.Context) (*Fig10Result, error) {
	g := apps.DSPFilter()
	sel, err := core.SelectContext(ctx, r.selectConfig(core.Config{
		App: g,
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DSPCapacityMBps,
		},
	}))
	if err != nil {
		return nil, err
	}
	if sel.Best == nil {
		return nil, fmt.Errorf("exp: DSP selection found nothing feasible")
	}
	out := &Fig10Result{
		Best:     sel.Best.Topology.Name(),
		BestHops: sel.Best.AvgHops,
		Latency:  make(map[string]float64),
	}
	if sel.Best.Floorplan != nil {
		var fp strings.Builder
		fmt.Fprintf(&fp, "chip %.2f x %.2f mm, %d switches\n",
			sel.Best.Floorplan.ChipWMM, sel.Best.Floorplan.ChipHMM, sel.Best.Topology.NumRouters())
		out.Floorplan = fp.String()
	}
	best := sel.BestPerKind()
	for _, k := range kindOrder {
		res, ok := best[k]
		if !ok {
			continue
		}
		rt, err := sim.BuildRoutesFromResult(res.Topology, res.Assign, res.Route)
		if err != nil {
			return nil, err
		}
		tr, err := traffic.NewTrace(g, res.Assign)
		if err != nil {
			return nil, err
		}
		st, err := sim.RunContext(ctx, sim.Config{
			Topo:            res.Topology,
			Routes:          rt,
			Pattern:         tr,
			SourceShare:     tr.SourceShare(),
			ActiveTerminals: res.Assign,
			InjectionRate:   0.15,
			Seed:            11,
			WarmupCycles:    1000,
			MeasureCycles:   4000,
			DrainCycles:     6000,
		})
		if err != nil {
			return nil, err
		}
		name := k.String()
		out.Latency[name] = st.AvgLatencyCycles
		out.Order = append(out.Order, name)
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

// Fig11 generates the DSP SystemC artifact on the runner's engine; with a
// shared cache the selection is a pure cache hit after Fig10.
func (r Runner) Fig11(ctx context.Context) (*Fig11Result, error) {
	g := apps.DSPFilter()
	sel, err := core.SelectContext(ctx, r.selectConfig(core.Config{
		App: g,
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DSPCapacityMBps,
		},
	}))
	if err != nil {
		return nil, err
	}
	if sel.Best == nil {
		return nil, fmt.Errorf("exp: DSP selection found nothing feasible")
	}
	gen, err := xpipes.Generate(g, sel.Best, tech.Tech100nm())
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{TopModule: gen.TopModule, Sizes: make(map[string]int)}
	out.Files = gen.FileNames()
	for n, c := range gen.Files {
		out.Sizes[n] = len(c)
	}
	sort.Strings(out.Files)
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
