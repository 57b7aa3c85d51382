package topology

import (
	"fmt"
	"math"
	"sort"
)

// LibraryOptions tunes the configuration enumeration of Enumerate and
// Library. The zero value gives the paper's defaults.
type LibraryOptions struct {
	// MaxAspect caps cols/rows for mesh and torus shapes (default 4).
	MaxAspect float64
	// MaxButterflyRadix caps k for k-ary n-fly enumeration (default 4).
	MaxButterflyRadix int
	// MaxClosFanIn caps n (terminals per ingress switch) for Clos
	// enumeration (default 4).
	MaxClosFanIn int
	// IncludeExtras adds the octagon and star extensions to Library.
	IncludeExtras bool
	// MaxTerminalSlack drops configurations whose terminal count exceeds
	// numCores by more than this factor (default 3.0), pruning absurdly
	// oversized networks.
	MaxTerminalSlack float64
}

// withDefaults substitutes the paper's defaults for zero values and
// rejects explicitly invalid settings: a butterfly radix or Clos fan-in
// below 2 describes no constructible network, so such values surface as
// errors instead of being silently coerced to the default.
func (o LibraryOptions) withDefaults() (LibraryOptions, error) {
	if o.MaxAspect <= 0 {
		o.MaxAspect = 4
	}
	switch {
	case o.MaxButterflyRadix == 0:
		o.MaxButterflyRadix = 4
	case o.MaxButterflyRadix < 2:
		return o, fmt.Errorf("topology: MaxButterflyRadix %d is invalid (want 0 for the default, or >= 2)",
			o.MaxButterflyRadix)
	}
	switch {
	case o.MaxClosFanIn == 0:
		o.MaxClosFanIn = 4
	case o.MaxClosFanIn < 2:
		return o, fmt.Errorf("topology: MaxClosFanIn %d is invalid (want 0 for the default, or >= 2)",
			o.MaxClosFanIn)
	}
	if o.MaxTerminalSlack <= 0 {
		o.MaxTerminalSlack = 3.0
	}
	return o, nil
}

// Enumerate returns the sensible configurations of one topology family able
// to host numCores cores, ordered by increasing terminal count then name.
// SUNMAP evaluates every returned configuration during Phase 1 and lets the
// objective function pick among them — this is how, e.g., the DSP filter
// ends up on a 3-ary 2-fly (3x3 switches, Fig. 10b) while VOPD lands on a
// 4-ary 2-fly.
func Enumerate(kind Kind, numCores int, opts LibraryOptions) ([]Topology, error) {
	if numCores < 2 {
		return nil, fmt.Errorf("topology: need at least 2 cores, got %d", numCores)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	maxTerms := int(math.Ceil(float64(numCores) * opts.MaxTerminalSlack))
	var out []Topology
	add := func(t Topology, err error) error {
		if err != nil {
			return err
		}
		if t.NumTerminals() < numCores || t.NumTerminals() > maxTerms {
			return nil
		}
		out = append(out, t)
		return nil
	}
	switch kind {
	case Mesh, Torus:
		minDim := 1
		if kind == Torus {
			minDim = 3
		}
		for rows := minDim; rows*rows <= numCores+rows; rows++ {
			cols := (numCores + rows - 1) / rows
			if cols < minDim {
				cols = minDim // torus needs >= 3 per dimension
			}
			if cols < rows {
				continue
			}
			if float64(cols)/float64(rows) > opts.MaxAspect {
				continue
			}
			var err error
			if kind == Mesh {
				err = add(NewMesh(rows, cols))
			} else {
				err = add(NewTorus(rows, cols))
			}
			if err != nil {
				return nil, err
			}
		}
	case Hypercube:
		dim := 1
		for 1<<dim < numCores {
			dim++
		}
		if err := add(NewHypercube(dim)); err != nil {
			return nil, err
		}
	case Butterfly:
		for k := 2; k <= opts.MaxButterflyRadix; k++ {
			n := 2
			terms := k * k
			for terms < numCores {
				terms *= k
				n++
			}
			if err := add(NewButterfly(k, n)); err != nil {
				return nil, err
			}
		}
	case Clos:
		for n := 2; n <= opts.MaxClosFanIn; n++ {
			r := (numCores + n - 1) / n
			if r < 2 {
				continue
			}
			for _, m := range []int{n, 2*n - 1} {
				if err := add(NewClos(m, n, r)); err != nil {
					return nil, err
				}
			}
		}
	case Octagon:
		if numCores <= 8 {
			if err := add(NewOctagon()); err != nil {
				return nil, err
			}
		}
	case Star:
		if err := add(NewStar(numCores)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("topology: unknown kind %v", kind)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NumTerminals() != out[j].NumTerminals() {
			return out[i].NumTerminals() < out[j].NumTerminals()
		}
		return out[i].Name() < out[j].Name()
	})
	return out, nil
}

// Library returns every configuration of the paper's five-family topology
// library (plus extras when requested) able to host numCores cores.
func Library(numCores int, opts LibraryOptions) ([]Topology, error) {
	kinds := []Kind{Mesh, Torus, Hypercube, Butterfly, Clos}
	if opts.IncludeExtras {
		kinds = append(kinds, Octagon, Star)
	}
	var out []Topology
	for _, k := range kinds {
		ts, err := Enumerate(k, numCores, opts)
		if err != nil {
			return nil, fmt.Errorf("topology: enumerating %v: %w", k, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ByName constructs a topology from its canonical name (e.g. "mesh-3x4",
// "butterfly-4ary2fly", "clos-m4n4r4", "hypercube-4", "octagon",
// "star-12"), the format produced by Topology.Name. It parses the library
// grammar only: synthesized and machine-discovered networks are
// application-specific instances, so they are resolved by the Scope of
// the session that built them, never by name alone.
func ByName(name string) (Topology, error) {
	var a, b, c int
	switch {
	case matched(name, "mesh-%dx%d", &a, &b):
		return NewMesh(a, b)
	case matched(name, "torus-%dx%d", &a, &b):
		return NewTorus(a, b)
	case matched(name, "hypercube-%d", &a):
		return NewHypercube(a)
	case matched(name, "butterfly-%dary%dfly", &a, &b):
		return NewButterfly(a, b)
	case matched(name, "clos-m%dn%dr%d", &a, &b, &c):
		return NewClos(a, b, c)
	case name == "octagon":
		return NewOctagon()
	case matched(name, "star-%d", &a):
		return NewStar(a)
	}
	return nil, fmt.Errorf("topology: unrecognized name %q", name)
}

func matched(s, format string, args ...*int) bool {
	ptrs := make([]interface{}, len(args))
	for i, a := range args {
		ptrs[i] = a
	}
	n, err := fmt.Sscanf(s, format, ptrs...)
	if err != nil || n != len(args) {
		return false
	}
	// Sscanf tolerates trailing garbage; rebuild and compare.
	vals := make([]interface{}, len(args))
	for i, a := range args {
		vals[i] = *a
	}
	return fmt.Sprintf(format, vals...) == s
}
