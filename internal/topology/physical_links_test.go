package topology_test

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// TestPhysicalLinksMatchesChannels pins the counting shortcut to the
// channel grouping it stands for, over every library topology for 2–64
// cores with the extensions and the synthesized candidates of the four
// paper apps.
func TestPhysicalLinksMatchesChannels(t *testing.T) {
	var corpus []topology.Topology
	for n := 2; n <= 64; n++ {
		lib, err := topology.Library(n, topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, lib...)
	}
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := synth.Candidates(app, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, cands...)
	}
	for _, topo := range corpus {
		if got, want := topology.PhysicalLinks(topo), len(topology.Channels(topo)); got != want {
			t.Errorf("%s: PhysicalLinks = %d, len(Channels) = %d", topo.Name(), got, want)
		}
	}
}
