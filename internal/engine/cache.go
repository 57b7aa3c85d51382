package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

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

// Key content-addresses one evaluation: the application digest, the
// topology (name plus structural digest) and the canonicalized mapping
// options fully determine a Map result, so equal keys may share one
// cached Result.
func Key(appDigest string, topo topology.Topology, opts mapping.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s", appDigest, topo.Name(), topoDigest(topo), opts.CacheKey())
	return hex.EncodeToString(h.Sum(nil))
}

// topoDigest hashes the structure the mapper observes — terminals,
// routers, links, terminal attachment and placement — so two topologies
// that happen to share a Name() (e.g. custom library entries) cannot
// collide onto one cache entry.
func topoDigest(t topology.Topology) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d\n", int(t.Kind()), t.NumTerminals(), t.NumRouters())
	for _, l := range t.Links() {
		fmt.Fprintf(h, "l%d:%d>%d\n", l.ID, l.From, l.To)
	}
	for term := 0; term < t.NumTerminals(); term++ {
		x, y := t.TerminalPosition(term)
		fmt.Fprintf(h, "t%d:%d,%d,%g,%g\n", term, t.InjectRouter(term), t.EjectRouter(term), x, y)
	}
	for r := 0; r < t.NumRouters(); r++ {
		x, y := t.Position(r)
		fmt.Fprintf(h, "r%d:%g,%g\n", r, x, y)
	}
	return hex.EncodeToString(h.Sum(nil))
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
	m            map[string]entry
	hits, misses uint64
}

// NewCache returns an empty evaluation cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]entry)}
}

// get returns the memoized evaluation and bumps the hit/miss counters.
func (c *Cache) get(key string) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
		cacheHitCount.Inc()
	} else {
		c.misses++
		cacheMissCount.Inc()
	}
	return e, ok
}

// put memoizes one evaluation.
func (c *Cache) put(key string, e entry) {
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
	defer c.mu.RUnlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.m)}
}
