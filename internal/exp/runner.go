package exp

import (
	"sunmap/internal/core"
	"sunmap/internal/engine"
)

// Runner threads the concurrent-engine knobs through the Fig*
// reproductions: worker-pool width and a shared evaluation cache, so one
// sunexp invocation regenerating several figures on the same application
// reuses design points instead of re-mapping them. The zero value runs at
// full parallelism with memoization disabled (nil Cache); pass
// engine.NewCache() to share work across figures.
type Runner struct {
	// Parallelism bounds the engine pool (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Cache, when non-nil, memoizes evaluations across figure runs.
	Cache *engine.Cache
}

func (r Runner) selectConfig(cfg core.Config) core.Config {
	cfg.Parallelism = r.Parallelism
	cfg.Cache = r.Cache
	return cfg
}

func (r Runner) explore() core.ExploreOptions {
	return core.ExploreOptions{Parallelism: r.Parallelism, Cache: r.Cache}
}
