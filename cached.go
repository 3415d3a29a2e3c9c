package paramra

import (
	"context"
	"fmt"

	"paramra/internal/cache"
)

// Cache is the content-addressed verdict cache plugged into Options.Cache.
// One Cache is safe for (and intended to be) shared by every concurrent
// Verify call in a process; see internal/cache for the canonical-form and
// single-flight semantics.
type Cache = cache.Cache

// CacheOptions configures NewCache.
type CacheOptions = cache.Options

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats = cache.Stats

// NewCache builds a verdict cache for Options.Cache.
func NewCache(o CacheOptions) *Cache { return cache.New(o) }

// cacheFingerprint renders every option that can influence a Verify verdict
// into the cache key. Progress, tracing and metrics sinks are deliberately
// absent. goalVar is the goal variable already translated to its canonical
// name (empty when Goal is nil). The leading version changes
// whenever the decision procedure changes what a stored verdict says — who
// decided it, its witness, its §4.3 bound or its prepass reason — so
// entries an earlier version wrote to a disk cache become misses, never
// stale hits.
func cacheFingerprint(o Options, goalVar string) string {
	g := ""
	if o.Goal != nil {
		g = fmt.Sprintf("%s=%d", goalVar, o.Goal.Val)
	}
	return fmt.Sprintf("fp6|g=%s|u=%d|dl=%t|pp=%t|mm=%d|ms=%d|sk=%d",
		g, o.UnrollDis, o.Datalog, o.Prepass,
		o.MaxMacroStates, o.MaxStates, o.MaxSkeletons)
}

// verifyCached sits between Verify and verify. With no cache configured it
// is a direct passthrough. Otherwise it canonicalizes the system modulo
// renaming and dis order and serves the verdict content-addressed: misses
// verify the canonical system — so witnesses, classes, and bounds are
// expressed in canonical names and a later hit is byte-for-byte the verdict
// a miss would have produced — and only complete, error-free results are
// stored. The canonical system is the submitted one up to names and dis
// order, so a cached answer has the class and error an uncached one has.
func verifyCached(ctx context.Context, sys *System, opts Options) (Result, error) {
	if opts.Cache == nil {
		return verify(ctx, sys, opts)
	}

	canon := cache.Canonicalize(sys)
	copts := opts
	goalVar := ""
	if opts.Goal != nil {
		cv, ok := canon.VarMap[opts.Goal.Var]
		if !ok {
			// Unknown goal variable; let the uncached path report the
			// usual error instead of inventing a cache-layer one.
			return verify(ctx, sys, opts)
		}
		g := *opts.Goal
		g.Var = cv
		copts.Goal = &g
		goalVar = cv
	}
	key := cache.Key(canon.Hash, cacheFingerprint(opts, goalVar))

	// The lookup span covers only the cache decision: on a miss it is
	// closed (outcome=miss) before the underlying verification starts, so
	// trace trees show lookup and verify as siblings, not a lookup that
	// swallowed the whole run.
	lspan := opts.beginSpan("cache-lookup")
	if lspan != nil {
		lspan.SetAttr("key", key[:16])
	}
	lookupOpen := true
	endLookup := func(outcome string) {
		if !lookupOpen {
			return
		}
		lookupOpen = false
		if lspan != nil {
			lspan.SetAttr("outcome", outcome)
			lspan.End()
		}
	}

	var (
		full Result
		ferr error
		ran  bool
	)
	v, outcome, err := opts.Cache.Do(ctx, key, func() (cache.Verdict, bool, error) {
		endLookup("miss")
		ran = true
		full, ferr = verify(ctx, canon.Sys, copts)
		storable := ferr == nil && full.Complete
		if storable {
			if ss := opts.beginSpan("cache-store"); ss != nil {
				ss.SetAttr("key", key[:16])
				ss.End()
			}
		}
		return toCacheVerdict(full), storable, ferr
	})
	if ran {
		// This caller was the computing leader (or a fallback after a
		// failed leader): return the full result, stats and graph intact.
		return full, ferr
	}
	endLookup(outcome.String())
	if err != nil {
		// Cancelled while waiting on another caller's computation.
		return Result{EnvThreadBound: -1, Class: Classify(canon.Sys)}, err
	}
	return fromCacheVerdict(v), nil
}

func toCacheVerdict(r Result) cache.Verdict {
	return cache.Verdict{
		Unsafe:         r.Unsafe,
		Complete:       r.Complete,
		Class:          r.Class,
		Underapprox:    r.Underapprox,
		EnvThreadBound: r.EnvThreadBound,
		Witness:        append([]string(nil), r.Witness...),
		DecidedBy:      r.DecidedBy,
		PrepassReason:  r.PrepassReason,
	}
}

func fromCacheVerdict(v cache.Verdict) Result {
	return Result{
		Unsafe:         v.Unsafe,
		Complete:       v.Complete,
		Class:          v.Class,
		Underapprox:    v.Underapprox,
		EnvThreadBound: v.EnvThreadBound,
		Witness:        append([]string(nil), v.Witness...),
		DecidedBy:      v.DecidedBy,
		PrepassReason:  v.PrepassReason,
		CacheHit:       true,
	}
}
