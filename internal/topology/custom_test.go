package topology

import (
	"strings"
	"testing"
)

// ringSpec builds a valid 4-router ring with one terminal per router.
func ringSpec(name string) CustomSpec {
	return CustomSpec{
		Name:        name,
		NumRouters:  4,
		BiLinks:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		Terminals:   []int{0, 1, 2, 3},
		RouterPos:   [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}},
		TerminalPos: [][2]float64{{0, -0.5}, {1, -0.5}, {1, 1.5}, {0, 1.5}},
	}
}

func TestNewCustomRing(t *testing.T) {
	topo, err := NewCustom(ringSpec("custom-ring4"))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != Synth {
		t.Errorf("kind = %v, want synth", topo.Kind())
	}
	if !topo.Kind().Direct() {
		t.Error("synth kind must count as direct for NI-link accounting")
	}
	if got := topo.MinHops(0, 2); got != 3 {
		t.Errorf("MinHops(0,2) = %d, want 3 (two links + first router)", got)
	}
	// The quadrant for opposite corners must admit both two-link routes
	// around the ring and still preserve the minimum distance (checked by
	// Validate, re-checked here for the precomputed masks).
	q := topo.Quadrant(0, 2)
	for r, ok := range q {
		if !ok {
			t.Errorf("quadrant 0->2 excludes router %d of a symmetric ring", r)
		}
	}
}

func TestNewCustomRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CustomSpec)
		want string
	}{
		{"empty name", func(s *CustomSpec) { s.Name = "" }, "needs a name"},
		{"self loop", func(s *CustomSpec) { s.BiLinks[0] = [2]int{1, 1} }, "self-loop"},
		{"dup link", func(s *CustomSpec) { s.BiLinks[1] = [2]int{1, 0} }, "repeats link"},
		{"link range", func(s *CustomSpec) { s.BiLinks[0] = [2]int{0, 9} }, "out of range"},
		{"terminal range", func(s *CustomSpec) { s.Terminals[2] = -1 }, "out of range"},
		{"router pos len", func(s *CustomSpec) { s.RouterPos = s.RouterPos[:2] }, "router positions"},
		{"terminal pos len", func(s *CustomSpec) { s.TerminalPos = s.TerminalPos[:1] }, "terminal positions"},
		{"disconnected", func(s *CustomSpec) { s.BiLinks = s.BiLinks[:2] }, "disconnected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := ringSpec("custom-bad")
			tc.mut(&spec)
			_, err := NewCustom(spec)
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLibraryOptionsRejectInvalid is the regression test for the silent
// coercion bug: explicit MaxButterflyRadix/MaxClosFanIn values below 2
// used to be bumped to the default 4; they must surface as errors.
func TestLibraryOptionsRejectInvalid(t *testing.T) {
	for _, opts := range []LibraryOptions{
		{MaxButterflyRadix: 1},
		{MaxButterflyRadix: -3},
		{MaxClosFanIn: 1},
		{MaxClosFanIn: -1},
	} {
		if _, err := Enumerate(Butterfly, 8, opts); err == nil {
			t.Errorf("Enumerate accepted invalid options %+v", opts)
		}
		if _, err := Library(8, opts); err == nil {
			t.Errorf("Library accepted invalid options %+v", opts)
		}
	}
	// Zero still selects the defaults and valid explicit values still work.
	if ts, err := Enumerate(Butterfly, 8, LibraryOptions{}); err != nil || len(ts) == 0 {
		t.Errorf("default options broke: %v (%d topologies)", err, len(ts))
	}
	if ts, err := Enumerate(Butterfly, 8, LibraryOptions{MaxButterflyRadix: 2}); err != nil || len(ts) == 0 {
		t.Errorf("explicit radix 2 broke: %v (%d topologies)", err, len(ts))
	}
}
