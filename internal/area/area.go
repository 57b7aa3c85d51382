// Package area implements SUNMAP's analytical switch area models
// (Section 5 of the paper): crossbar, buffer and control/logic area per
// switch configuration, plus link wiring area. The models account for
// per-port scaling so that, e.g., the 3x3 corner switches of a mesh cost
// less than the 5x5 interior switches — the effect behind the mesh-vs-torus
// area gap of Fig. 3(d).
package area

import (
	"fmt"

	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

// SwitchConfig describes one switch instance. In and Out include core
// ports: a mesh interior switch with a mapped core is 5x5.
type SwitchConfig struct {
	// In and Out are the input and output port counts.
	In, Out int
	// BufDepthFlits is the per-input buffer depth.
	BufDepthFlits int
	// FlitBits is the datapath width.
	FlitBits int
}

// String renders the configuration as "5x5/4x32b".
func (c SwitchConfig) String() string {
	return fmt.Sprintf("%dx%d/%dx%db", c.In, c.Out, c.BufDepthFlits, c.FlitBits)
}

// SwitchAreaMM2 returns the silicon area of one switch: crossbar area
// grows with In*Out and the square of the flit width, buffers with
// In*depth*width, logic with total ports.
func SwitchAreaMM2(c SwitchConfig, t tech.Tech) float64 {
	if c.In <= 0 || c.Out <= 0 {
		return 0
	}
	w := float64(c.FlitBits) / 32.0
	xbar := t.XbarAreaMM2 * float64(c.In*c.Out) * w * w
	buf := t.BufAreaMM2 * float64(c.In*c.BufDepthFlits) * w
	logic := t.LogicAreaMM2 * float64(c.In+c.Out)
	return xbar + buf + logic
}

// SwitchConfigs derives the per-router switch configurations of a mapped
// design: each router's inter-router degree plus one input and one output
// port per core mapped to one of its terminals. assign[c] = terminal of
// core c; pass nil to size every switch as if all terminals were occupied.
func SwitchConfigs(topo topology.Topology, assign []int, t tech.Tech) []SwitchConfig {
	cfgs := make([]SwitchConfig, topo.NumRouters())
	SwitchConfigsInto(cfgs, topo, assign, t)
	return cfgs
}

// SwitchConfigsInto is SwitchConfigs writing into cfgs, which must have
// one entry per router; it allocates nothing.
func SwitchConfigsInto(cfgs []SwitchConfig, topo topology.Topology, assign []int, t tech.Tech) {
	for r := range cfgs {
		in, out := topo.RouterDegree(r)
		cfgs[r] = SwitchConfig{In: in, Out: out, BufDepthFlits: t.BufDepthFlits, FlitBits: t.FlitBits}
	}
	if assign == nil {
		for term := 0; term < topo.NumTerminals(); term++ {
			cfgs[topo.InjectRouter(term)].In++
			cfgs[topo.EjectRouter(term)].Out++
		}
		return
	}
	for _, term := range assign {
		cfgs[topo.InjectRouter(term)].In++
		cfgs[topo.EjectRouter(term)].Out++
	}
}

// NetworkSwitchAreaMM2 sums the switch areas of a mapped design.
func NetworkSwitchAreaMM2(topo topology.Topology, assign []int, t tech.Tech) float64 {
	var sum float64
	for _, c := range SwitchConfigs(topo, assign, t) {
		sum += SwitchAreaMM2(c, t)
	}
	return sum
}

// LinkAreaMM2 returns the wiring area of the links given their lengths in
// millimetres (indexed by link ID).
func LinkAreaMM2(linkLengthsMM []float64, t tech.Tech) float64 {
	var sum float64
	w := float64(t.FlitBits) / 32.0
	for _, l := range linkLengthsMM {
		sum += t.LinkAreaMM2PerMM * l * w
	}
	return sum
}
