package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"

	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/topology"
)

// Process-wide cache-effectiveness counters, mirroring the per-Cache
// CacheStats snapshot so /metrics can show hit rates without reaching
// into any particular session's cache.
var (
	cacheLookups   = obs.Default.CounterVec("sunmap_evalcache_lookups_total", "evaluation-cache lookups by outcome", "outcome")
	cacheHitCount  = cacheLookups.With("hit")
	cacheMissCount = cacheLookups.With("miss")
)

// cacheKeys returns every job's evaluation key. One run digests the
// application once and each distinct topology once: jobs holding the
// same pointer share its structural digest. A topology of any other
// dynamic type is digested per job, since a map keyed by an interface
// panics on a non-comparable value. A panic in a Topology method fails
// the run with an ErrPanic error, as it would inside a unit.
func cacheKeys(app *graph.CoreGraph, jobs []Job) (keys [][sha256.Size]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			keys, err = nil, fmt.Errorf("%w building cache keys: %v", ErrPanic, r)
		}
	}()
	appDigest := app.Digest()
	keys = make([][sha256.Size]byte, len(jobs))
	digests := make(map[topology.Topology][sha256.Size]byte, len(jobs))
	for i, j := range jobs {
		var d [sha256.Size]byte
		if reflect.TypeOf(j.Topo).Kind() != reflect.Pointer {
			d = topoDigest(j.Topo)
		} else if memo, ok := digests[j.Topo]; ok {
			d = memo
		} else {
			d = topoDigest(j.Topo)
			digests[j.Topo] = d
		}
		keys[i] = key(&appDigest, &d, j.Topo.Name(), j.Opts)
	}
	return keys, nil
}

// key content-addresses one evaluation: SHA-256 over the application
// digest, the topology's structural digest and name, and the canonical
// encoding of the mapping options. These fully determine a Map result,
// so equal keys may share one cached Result.
//
//sunmap:hotpath
func key(app, topo *[sha256.Size]byte, name string, opts mapping.Options) [sha256.Size]byte {
	var buf [512]byte
	copy(buf[:], app[:])
	copy(buf[sha256.Size:], topo[:])
	b := binary.AppendUvarint(buf[:2*sha256.Size], uint64(len(name)))
	b = append(b, name...) //sunmap:alloc only a name longer than the buffer's headroom spills to the heap
	return sha256.Sum256(opts.AppendCacheKey(b))
}

// topoDigest hashes the structure the mapper observes — terminals,
// routers, links, terminal attachment and placement — so two topologies
// that happen to share a Name() (e.g. custom library entries) cannot
// collide onto one cache entry. Integers enter as uvarints and positions
// as uvarints of their byte-reversed IEEE-754 bits — the gob encoding,
// injective and a few bytes for the short mantissas of grid coordinates
// — streamed through a stack buffer into one SHA-256 state.
//
//sunmap:hotpath
func topoDigest(t topology.Topology) [sha256.Size]byte {
	const record = 48 // bound on one encoded link, terminal or router
	h := sha256.New()
	var buf [512]byte
	links := t.Links()
	nt, nr := t.NumTerminals(), t.NumRouters()
	b := buf[:0]
	for _, v := range [...]int{int(t.Kind()), nt, nr, len(links)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, l := range links {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.AppendUvarint(b, uint64(l.ID))
		b = binary.AppendUvarint(b, uint64(l.From))
		b = binary.AppendUvarint(b, uint64(l.To))
	}
	for term := 0; term < nt; term++ {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		x, y := t.TerminalPosition(term)
		b = binary.AppendUvarint(b, uint64(t.InjectRouter(term)))
		b = binary.AppendUvarint(b, uint64(t.EjectRouter(term)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(y)))
	}
	for r := 0; r < nr; r++ {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		x, y := t.Position(r)
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(y)))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// entry is one memoized evaluation. Hard mapping failures (structural
// mismatches such as too few terminals) are deterministic, so they are
// cached alongside successes.
type entry struct {
	res *mapping.Result
	err error
}

// Cache is a concurrency-safe, content-addressed memo of mapping
// evaluations shared across Phase-1 sweeps, routing escalation, routing
// sweeps and Pareto exploration. Cached Results are shared pointers and
// must be treated as immutable by all consumers.
type Cache struct {
	mu           sync.RWMutex
	m            map[[sha256.Size]byte]entry
	hits, misses atomic.Uint64
}

// NewCache returns an empty evaluation cache.
func NewCache() *Cache {
	return &Cache{m: make(map[[sha256.Size]byte]entry)}
}

// get returns the memoized evaluation and bumps the hit/miss counters.
// Lookups share the read lock, so concurrent hits do not serialize.
func (c *Cache) get(key [sha256.Size]byte) (entry, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		cacheHitCount.Inc()
	} else {
		c.misses.Add(1)
		cacheMissCount.Inc()
	}
	return e, ok
}

// put memoizes one evaluation.
func (c *Cache) put(key [sha256.Size]byte, e entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[key] = e
	c.mu.Unlock()
}

// CacheStats snapshots cache effectiveness. The JSON names are part of
// the serve layer's wire schema (BatchResponse.cache).
type CacheStats struct {
	// Hits and Misses count lookups since creation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the number of memoized evaluations.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
