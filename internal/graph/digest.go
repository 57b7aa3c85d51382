package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Digest returns a content hash of the core graph: cores (name, area,
// softness, aspect bounds) and edges (endpoints, bandwidth) in insertion
// order. Two graphs with the same digest produce identical mappings under
// identical options, so the digest keys the evaluation cache. The
// application name is deliberately excluded: renaming an app does not
// change its design points. It is computed once per graph state, like
// Shared's results.
func (g *CoreGraph) Digest() [sha256.Size]byte {
	d := g.state()
	d.digestOnce.Do(func() { d.digest = g.digest() })
	return d.digest
}

// digest hashes the graph's binary encoding: counts and indices as
// uvarints, floats as their IEEE-754 bits (so -0 and +0 stay apart) and
// core names length-prefixed, streamed through a stack buffer into one
// SHA-256 state.
//
//sunmap:hotpath
func (g *CoreGraph) digest() [sha256.Size]byte {
	const record = 48 // bound on one encoded record, name excluded
	le := binary.LittleEndian
	h := sha256.New()
	var buf [512]byte
	b := binary.AppendUvarint(buf[:0], uint64(len(g.cores)))
	for _, c := range g.cores {
		if len(b)+len(c.Name)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		lo, hi := c.AspectBounds()
		b = binary.AppendUvarint(b, uint64(len(c.Name)))
		b = append(b, c.Name...) //sunmap:alloc only a name longer than the buffer spills it to the heap
		b = le.AppendUint64(b, math.Float64bits(c.AreaMM2))
		soft := uint64(0)
		if c.Soft {
			soft = 1
		}
		b = binary.AppendUvarint(b, soft)
		b = le.AppendUint64(b, math.Float64bits(lo))
		b = le.AppendUint64(b, math.Float64bits(hi))
	}
	b = binary.AppendUvarint(b, uint64(len(g.edges)))
	for _, e := range g.edges {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.AppendUvarint(b, uint64(e.From))
		b = binary.AppendUvarint(b, uint64(e.To))
		b = le.AppendUint64(b, math.Float64bits(e.BandwidthMBps))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
