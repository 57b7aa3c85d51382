package topology

import "fmt"

// butterflyTopology is a k-ary n-fly (Fig. 2b): n stages of k^(n-1)
// switches with radix k. Terminal t injects at stage-0 switch t/k and
// ejects at stage-(n-1) switch t/k; there is exactly one path between any
// terminal pair (no path diversity), the property behind the MPEG4
// infeasibility result of Section 6.1.
//
// Stage-i switch s connects to the k stage-(i+1) switches whose index
// equals s with the base-k digit at position n-2-i replaced by each of the
// k possible values. For the 2-ary 3-fly this reproduces Fig. 2(b): stage-1
// switch 0 reaches switches 0 and 2 of stage 2 (maximum distance halves
// with each stage).
type butterflyTopology struct {
	*base
	k, n     int // radix and stage count
	perStage int // switches per stage = k^(n-1)
}

// NewButterfly constructs a k-ary n-fly with k >= 2 and n >= 2.
func NewButterfly(k, n int) (Topology, error) {
	if k < 2 || n < 2 {
		return nil, fmt.Errorf("topology: invalid butterfly %d-ary %d-fly", k, n)
	}
	name := fmt.Sprintf("butterfly-%dary%dfly", k, n)
	numTerm := 1 // k^n
	for i := 0; i < n; i++ {
		var err error
		if numTerm, err = checkSize(name, "terminals", numTerm, k); err != nil {
			return nil, err
		}
	}
	perStage := numTerm / k
	b := &butterflyTopology{
		base:     newBase(name, Butterfly, perStage*n, numTerm),
		k:        k,
		n:        n,
		perStage: perStage,
	}
	// Router index: stage*perStage + switchIndex.
	for stage := 0; stage < n-1; stage++ {
		digit := n - 2 - stage // base-k digit changed between these stages
		div := 1
		for i := 0; i < digit; i++ {
			div *= k
		}
		for s := 0; s < perStage; s++ {
			u := stage*b.perStage + s
			rest := s - (s/div%k)*div // s with the digit zeroed
			for val := 0; val < k; val++ {
				v := (stage+1)*perStage + rest + val*div
				b.addLink(u, v)
			}
		}
	}
	for t := 0; t < numTerm; t++ {
		b.inject[t] = t / k               // stage-0 switch
		b.eject[t] = (n-1)*perStage + t/k // last-stage switch
	}
	// Placement: stages occupy columns 1..n; terminals alternate between
	// column 0 (even) and column n+1 (odd), spread vertically.
	scaleY := 1.0
	if perStage > 1 {
		scaleY = float64(numTerm/2) / float64(perStage)
	}
	for stage := 0; stage < n; stage++ {
		for s := 0; s < perStage; s++ {
			b.pos[stage*perStage+s] = [2]float64{float64(stage + 1), float64(s) * scaleY}
		}
	}
	for t := 0; t < numTerm; t++ {
		col := 0.0
		if t%2 == 1 {
			col = float64(n + 1)
		}
		b.tpos[t] = [2]float64{col, float64(t / 2)}
	}
	return b, nil
}

// Quadrant returns the switches on the unique source→destination path:
// quadrant formation is "trivial" for butterflies (Section 4.3).
func (b *butterflyTopology) Quadrant(src, dst int) []bool {
	mask := make([]bool, b.NumRouters())
	srcSwitch := src / b.k
	dstSwitch := dst / b.k
	// At stage i the path switch takes its digit at position p from the
	// destination switch when p >= n-1-i, from the source otherwise.
	for stage := 0; stage < b.n; stage++ {
		s := 0
		div := 1
		for p := 0; p < b.n-1; p++ {
			var digit int
			if p >= b.n-1-stage {
				digit = dstSwitch / div % b.k
			} else {
				digit = srcSwitch / div % b.k
			}
			s += digit * div
			div *= b.k
		}
		mask[stage*b.perStage+s] = true
	}
	return mask
}

// Radix returns k and Stages returns n; the physical models and the
// generator use them to size switches.
func (b *butterflyTopology) Radix() int  { return b.k }
func (b *butterflyTopology) Stages() int { return b.n }
