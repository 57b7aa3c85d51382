package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// cacheKeys returns every job's evaluation key. The application is
// digested once per run; a topology's structural digest comes from
// topology.Digest, which a library, synthesized or discovered topology
// computes once per object, so a warm run hashes no structure. A panic in
// a Topology method fails the run with an ErrPanic error, as it would
// inside a unit.
func cacheKeys(app *graph.CoreGraph, jobs []Job) (keys [][sha256.Size]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			keys, err = nil, fmt.Errorf("%w building cache keys: %v", ErrPanic, r)
		}
	}()
	appDigest := app.Digest()
	keys = make([][sha256.Size]byte, len(jobs))
	for i, j := range jobs {
		d := topology.Digest(j.Topo)
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
