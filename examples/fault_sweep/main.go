// Fault sweep: survivability of a library topology versus a synthesized
// application-specific one for the MPEG-4 decoder.
//
// A denser network costs area and power but leaves more surviving paths
// when links wear out. This example maps MPEG-4 onto the 3x4 mesh and
// onto a min-cut cluster topology synthesized for it, sweeps every
// single and double channel failure (exhaustive k <= 2 enumeration),
// and compares survivability and degradation. It then runs a
// reliability-aware selection (WithFault), where the survivability score
// joins the ranking, and finishes with a cycle-accurate fault injection:
// the worst-case failure strikes mid-run and delivered throughput is
// measured before and after.
//
// Run with:
//
//	go run ./examples/fault_sweep
package main

import (
	"context"
	"fmt"
	"log"

	"sunmap"
)

func main() {
	ctx := context.Background()

	// Synthesis-enabled session with a session-default failure model:
	// selections rank with the reliability axis, sweeps inherit nothing
	// (FaultSweep requests carry their own spec).
	sess, err := sunmap.NewSession(
		sunmap.WithSynth(sunmap.SynthOptions{}),
		sunmap.WithFault(sunmap.FaultSpec{K: 1}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Synthesize the candidates in the session, which makes them
	// addressable by name in its requests, and pick the cluster topology.
	app, err := sunmap.AppByName("mpeg4")
	if err != nil {
		log.Fatal(err)
	}
	cands, err := sess.SynthCandidates(app, sunmap.SynthOptions{})
	if err != nil {
		log.Fatal(err)
	}
	synthName := cands[0].Name()

	// Survivability head-to-head: library mesh vs synthesized clusters,
	// single and double channel faults.
	mapping := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 1000}
	fmt.Printf("%-26s %2s %10s %14s %10s %14s\n",
		"topology", "k", "scenarios", "survivability", "connected", "worst MB/s")
	for _, topo := range []string{"mesh-3x4", synthName} {
		for k := 1; k <= 2; k++ {
			rep, err := sess.FaultSweep(ctx, sunmap.FaultSweepRequest{
				App:      sunmap.AppSpec{Name: "mpeg4"},
				Topology: topo,
				Mapping:  mapping,
				Fault:    sunmap.FaultSpec{K: k},
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-26s %2d %10d %14.3f %10.3f %14.1f\n",
				rep.Topology, rep.K, rep.Scenarios, rep.Survivability,
				rep.ConnectedFrac, rep.WorstMaxLoadMBps)
		}
	}

	// Reliability-aware selection: the WithFault session default sweeps
	// every feasible candidate and folds survivability into Phase 2.
	sel, err := sess.Select(ctx, sunmap.SelectRequest{
		App:     sunmap.AppSpec{Name: "mpeg4"},
		Mapping: mapping,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreliability-aware selection: %s (%d candidates, %d feasible)\n",
		sel.Topology, sel.Candidates, sel.Feasible)
	for _, r := range sel.Rows {
		if !r.Feasible || r.Survivability == nil {
			continue
		}
		fmt.Printf("  %-26s survivability %.3f, avg hops %.2f, %.1f mW\n",
			r.Topology, *r.Survivability, r.AvgHops, r.PowerMW)
	}

	// Cycle-accurate fault injection on the selected design: the worst
	// surviving failure strikes at cycle 3000; packets injected after it
	// use degraded-mode reroutes.
	frep, err := sess.FaultSweep(ctx, sunmap.FaultSweepRequest{
		App:      sunmap.AppSpec{Name: "mpeg4"},
		Topology: sel.Topology,
		Mapping:  mapping,
		Fault:    sunmap.FaultSpec{K: 1},
		SimRate:  0.15,
	})
	if err != nil {
		log.Fatal(err)
	}
	if s := frep.Sim; s != nil {
		fmt.Printf("\nfault injection on %s at cycle %d (links %v):\n",
			frep.Topology, s.FaultCycle, s.FailedLinks)
		fmt.Printf("  throughput %.3f -> %.3f flits/cycle/terminal, %d packets stranded\n",
			s.PreFaultFPC, s.PostFaultFPC, s.UnfinishedPackets)
	}
}
