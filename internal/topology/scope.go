package topology

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Scope is one session's topology catalog: every topology the session
// can name, built once and handed out as the same immutable object on
// every request, so its structural digest (Digest) and routing tables
// (SharedTables), memoized on the object, are derived once too. It holds
// three kinds of entry:
//
//   - custom topologies — synthesized candidates and topology-search
//     winners, application-specific instances no name can rebuild
//     (Register);
//   - library-grammar topologies, built on the first Resolve of their
//     name;
//   - whole libraries, one per (cores, LibraryOptions), built on the
//     first Library call. A library's members are the objects Resolve
//     returns for their names, and a later library reuses the objects
//     already held: while an object is held, its name gives that object.
//
// A Scope is owned by one Session, so lookups cannot observe another
// session's candidates and two tenants' same-named candidates never
// collide. Both halves are bounded, so a long-running serve process
// holds at most the bound's worth of topologies: custom entries by
// count, evicting the least recently registered; library entries by
// count and by terminal pairs — the unit the min-hop table and the
// routing tables grow in — evicting in build order. An entry past the
// pair bound on its own is handed out but not held.
//
// Custom entries may not shadow a library-grammar name. Callers validate
// a topology where they build it; Register only keeps the books. All
// methods are safe for concurrent use.
type Scope struct {
	mu    sync.Mutex
	limit int
	m     map[string]Topology
	order []string // registration order, least recent first

	// Library side: named holds every library-grammar topology some held
	// entry owns, libs the libraries, held the entries in build order.
	named map[string]*namedRef
	libs  map[libKey]*libEntry
	held  []heldEntry
	pairs int // terminal pairs of the held entries
}

// DefaultScopeLimit is the entry cap a zero/negative NewScope limit
// resolves to. The library side holds at most as many entries.
const DefaultScopeLimit = 256

// maxHeldPairs bounds the terminal pairs (NumTerminals² summed over
// entries) a Scope's library side holds: a default 64-core library is
// about 200k pairs, a 1024-terminal network alone the whole bound.
const maxHeldPairs = 1 << 20

// namedRef is a library-grammar topology and the number of held entries
// owning it.
type namedRef struct {
	t    Topology
	refs int
}

// libKey identifies one library. Floats enter as their bits, so a NaN
// option still finds its entry.
type libKey struct {
	cores         int
	aspect, slack uint64
	radix, fanIn  int
	extras        bool
}

// libEntry is one library, built once by the first caller.
type libEntry struct {
	once sync.Once
	lib  []Topology
	err  error
}

// heldEntry is one library-side entry: a library (names are its
// members') or a single named topology (lib is nil).
type heldEntry struct {
	key   libKey
	lib   *libEntry
	names []string
	pairs int
}

// NewScope returns an empty scope holding at most limit custom entries
// and limit library-side entries (DefaultScopeLimit when limit <= 0).
// When full, registering a new name evicts the least recently registered
// custom entry.
func NewScope(limit int) *Scope {
	if limit <= 0 {
		limit = DefaultScopeLimit
	}
	return &Scope{
		limit: limit,
		m:     make(map[string]Topology),
		named: make(map[string]*namedRef),
		libs:  make(map[libKey]*libEntry),
	}
}

// Register adds t to the scope as its newest custom entry.
// Re-registering a name replaces the entry and makes it the newest, so
// the candidates of an app that is selected again are the last to be
// evicted; a new name may evict the oldest entry to stay within the
// limit.
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

// Resolve returns the topology the session knows by name: a custom
// entry, else the held library-grammar topology of that name, else one
// built from the grammar (ByName) and held. Custom names never shadow
// the grammar (Register rejects it), so the precedence is safe. An
// unresolvable name returns ByName's error.
func (sc *Scope) Resolve(name string) (Topology, error) {
	sc.mu.Lock()
	t, ok := sc.m[name]
	if !ok {
		if ref := sc.named[name]; ref != nil {
			t, ok = ref.t, true
		}
	}
	sc.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := ByName(name)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if ref := sc.named[name]; ref != nil {
		return ref.t, nil // a concurrent Resolve or Library got there first
	}
	sc.hold(heldEntry{names: []string{name}, pairs: pairsOf(t)}, []Topology{t})
	return t, nil
}

// Library returns Library(cores, opts), built once per (cores, opts) and
// shared: callers get the same slice, which they must not modify. Two
// concurrent first calls build it once.
func (sc *Scope) Library(cores int, opts LibraryOptions) ([]Topology, error) {
	key := libKey{
		cores:  cores,
		aspect: math.Float64bits(opts.MaxAspect), slack: math.Float64bits(opts.MaxTerminalSlack),
		radix: opts.MaxButterflyRadix, fanIn: opts.MaxClosFanIn,
		extras: opts.IncludeExtras,
	}
	sc.mu.Lock()
	e := sc.libs[key]
	if e == nil {
		e = &libEntry{}
		sc.libs[key] = e
	}
	sc.mu.Unlock()
	e.once.Do(func() {
		lib, err := Library(cores, opts)
		sc.mu.Lock()
		defer sc.mu.Unlock()
		h := heldEntry{key: key, lib: e}
		for i, t := range lib {
			if ref := sc.named[t.Name()]; ref != nil {
				lib[i] = ref.t
			}
			h.names = append(h.names, t.Name())
			h.pairs += pairsOf(t)
		}
		e.lib, e.err = lib, err
		sc.hold(h, lib)
	})
	return e.lib, e.err
}

// pairsOf is t's weight against maxHeldPairs.
func pairsOf(t Topology) int { return t.NumTerminals() * t.NumTerminals() }

// hold records h, whose names resolve to topos, as the newest
// library-side entry, then evicts the oldest entries until the side is
// within its count and pair bounds. An entry past the pair bound on its
// own is not held, and evicts nothing. Callers hold sc.mu.
func (sc *Scope) hold(h heldEntry, topos []Topology) {
	if h.pairs > maxHeldPairs {
		if h.lib != nil {
			delete(sc.libs, h.key)
		}
		return
	}
	for i, name := range h.names {
		ref := sc.named[name]
		if ref == nil {
			ref = &namedRef{t: topos[i]}
			sc.named[name] = ref
		}
		ref.refs++
	}
	sc.held = append(sc.held, h)
	sc.pairs += h.pairs
	for len(sc.held) > sc.limit || sc.pairs > maxHeldPairs {
		old := sc.held[0]
		sc.held = slices.Delete(sc.held, 0, 1)
		sc.pairs -= old.pairs
		for _, name := range old.names {
			ref := sc.named[name]
			if ref.refs--; ref.refs == 0 {
				delete(sc.named, name)
			}
		}
		if old.lib != nil && sc.libs[old.key] == old.lib {
			delete(sc.libs, old.key)
		}
	}
}
