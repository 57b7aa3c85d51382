// Custom topology synthesis: generate application-specific candidates for
// the MPEG-4 decoder and let them compete with the standard library in one
// Select call.
//
// The MPEG-4 core graph is hub-shaped: three SDRAM flows (910, 670 and
// 600 MB/s) exceed any 700 MB/s link, so under single-path routing no
// library topology is feasible — every one must carry the 910 MB/s flow on
// some link. Min-cut clustering puts the hub and its heaviest neighbour on
// the same switch, turning that flow into a zero-link, intra-switch route;
// the synthesized cluster topologies become the only feasible designs and
// win the selection outright, the central result of the topology-synthesis
// follow-on literature (e.g. arXiv:1402.2462).
//
// Run with:
//
//	go run ./examples/custom_topology
package main

import (
	"context"
	"fmt"
	"log"

	"sunmap"
)

func main() {
	ctx := context.Background()
	app, err := sunmap.AppByName("mpeg4")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("application:", app)

	// A synthesis-enabled session: its Select requests sweep the full
	// standard library plus the synthesized candidates.
	sess, err := sunmap.NewSession(sunmap.WithSynth(sunmap.SynthOptions{}))
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the synthesized candidates on their own first.
	cands, err := sess.SynthCandidates(app, sunmap.SynthOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesized candidates (switch radix <= 4):\n")
	for _, c := range cands {
		fmt.Printf("  %-26s %2d switches, %2d physical links, %2d terminals\n",
			c.Name(), c.NumRouters(), sunmap.PhysicalLinks(c), c.NumTerminals())
	}

	// One Select request: 700 MB/s links, min-delay.
	rep, err := sess.Select(ctx, sunmap.SelectRequest{
		App: sunmap.AppSpec{Name: "mpeg4"},
		Mapping: sunmap.MapSpec{
			Routing:      "MP",
			Objective:    "delay",
			CapacityMBps: 700,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d candidates (%d synthesized), %d feasible at 700 MB/s links\n",
		rep.Candidates, rep.Synthesized, rep.Feasible)
	fmt.Printf("%-26s %8s %9s %10s %9s %9s\n",
		"topology", "avg hops", "area mm2", "power mW", "max MB/s", "feasible")
	for _, r := range rep.Rows {
		fmt.Printf("%-26s %8.2f %9.2f %10.1f %9.1f %9v\n",
			r.Topology, r.AvgHops, r.AreaMM2, r.PowerMW, r.MaxLoadMBps, r.Feasible)
	}

	best := rep.Best
	fmt.Printf("\nselected: %s (avg hops %.2f, %.2f mm^2, %.1f mW)\n",
		rep.Topology, best.AvgHops, best.DesignAreaMM2, best.PowerMW)

	// Synthesized winners flow through the rest of the pipeline unchanged:
	// Select registered them in the session, so it can simulate by name.
	simRep, err := sess.Simulate(ctx, sunmap.SimRequest{
		Topology:      rep.Topology,
		Pattern:       "uniform",
		Rates:         []float64{0.1},
		Seed:          7,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		DrainCycles:   6000,
	})
	if err != nil {
		log.Fatal(err)
	}
	row := simRep.Rows[0]
	fmt.Printf("simulated %s at 0.1 flits/cycle/terminal: avg latency %.1f cycles, throughput %.3f flits/cycle/terminal\n",
		simRep.Topology, row.AvgLatencyCycles, row.ThroughputFPC)
}
