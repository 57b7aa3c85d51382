package topology

import (
	"fmt"
	"slices"
	"sync"
)

// Scope is a bounded, session-local registry of custom topologies:
// synthesized candidates and topology-search winners, which are
// application-specific instances that no name can rebuild. A Scope is
// owned by one Session, so lookups cannot observe another session's
// candidates and two tenants' same-named candidates never collide, and
// eviction of the least recently registered entries bounds memory in a
// long-running serve process.
//
// Entries may not shadow a library-grammar name. Callers validate a
// topology where they build it; Register only keeps the books. All
// methods are safe for concurrent use.
type Scope struct {
	mu    sync.Mutex
	limit int
	m     map[string]Topology
	order []string // registration order, least recent first
}

// DefaultScopeLimit is the entry cap a zero/negative NewScope limit
// resolves to.
const DefaultScopeLimit = 256

// NewScope returns an empty scope holding at most limit entries
// (DefaultScopeLimit when limit <= 0). When full, registering a new name
// evicts the least recently registered entry.
func NewScope(limit int) *Scope {
	if limit <= 0 {
		limit = DefaultScopeLimit
	}
	return &Scope{limit: limit, m: make(map[string]Topology)}
}

// Register adds t to the scope as its newest entry. Re-registering a
// name replaces the entry and makes it the newest, so the candidates of
// an app that is selected again are the last to be evicted; a new name
// may evict the oldest entry to stay within the limit.
func (sc *Scope) Register(t Topology) error {
	name := t.Name()
	if name == "" {
		return fmt.Errorf("topology: cannot register a topology with an empty name")
	}
	if builtin, err := ByName(name); err == nil {
		return fmt.Errorf("topology: cannot register %q: name is taken by library topology %s",
			name, builtin.Name())
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, exists := sc.m[name]; exists {
		i := slices.Index(sc.order, name)
		sc.order = slices.Delete(sc.order, i, i+1)
	}
	sc.order = append(sc.order, name)
	for len(sc.order) > sc.limit {
		delete(sc.m, sc.order[0])
		sc.order = slices.Delete(sc.order, 0, 1)
	}
	sc.m[name] = t
	return nil
}

// Lookup returns the scoped topology registered under name, if any.
func (sc *Scope) Lookup(name string) (Topology, bool) {
	sc.mu.Lock()
	t, ok := sc.m[name]
	sc.mu.Unlock()
	return t, ok
}
