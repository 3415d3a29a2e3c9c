package cache_test

// Shared-cache concurrency and Verify-pipeline tests: N goroutines pushing
// renamed variants of one system through a single cache must trigger exactly
// one underlying verification (single-flight), leak no goroutines, and all
// observe the same verdict. The pipeline tests pin that a cache never
// changes the answer, the CacheHit contract (zero Stats, no Graph on hits),
// the option fingerprint, and the unknown-goal bypass.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/cache"
	"paramra/internal/lang"
)

// completeEntry returns the first corpus entry whose cold verify under
// metaOptions completes without error — the precondition for its verdict to
// be storable, which every test here relies on.
func completeEntry(t *testing.T) (*lang.System, paramra.Result) {
	t.Helper()
	for _, e := range bench.Corpus() {
		sys := e.System()
		res, err := paramra.Verify(context.Background(), sys, metaOptions(nil))
		if err == nil && res.Complete {
			return sys, res
		}
	}
	t.Fatal("no corpus entry completes under the test options")
	return nil, paramra.Result{}
}

// TestSharedCacheConcurrentVerify: 16 goroutines verify 16 differently
// renamed variants of one system through one shared cache. Single-flight
// guarantees exactly one miss; every other caller is a hit or a shared
// waiter; all agree on the verdict. Run under -race this also exercises the
// cache's locking end to end through the paramra entry point.
func TestSharedCacheConcurrentVerify(t *testing.T) {
	sys, _ := completeEntry(t)
	const n = 16
	before := runtime.NumGoroutine()

	c := paramra.NewCache(paramra.CacheOptions{})
	opts := metaOptions(c)
	results := make([]paramra.Result, n)
	errs := make([]error, n)

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			variant := sys
			if i > 0 {
				variant = cache.Rename(sys, int64(i))
			}
			start.Wait()
			results[i], errs[i] = paramra.Verify(context.Background(), variant, opts)
		}(i)
	}
	start.Done()
	done.Wait()

	hits := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].CacheHit {
			hits++
		}
		if results[i].Unsafe != results[0].Unsafe || results[i].Complete != results[0].Complete ||
			results[i].Class.String() != results[0].Class.String() ||
			results[i].EnvThreadBound != results[0].EnvThreadBound {
			t.Errorf("goroutine %d disagrees: %+v vs %+v", i, results[i], results[0])
		}
	}
	if hits != n-1 {
		t.Errorf("CacheHit count = %d, want %d (exactly one computing leader)", hits, n-1)
	}

	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (single-flight)", s.Misses)
	}
	if s.Hits+s.Shared != n-1 {
		t.Errorf("Hits+Shared = %d+%d, want %d", s.Hits, s.Shared, n-1)
	}
	if s.Stores != 1 {
		t.Errorf("Stores = %d, want 1", s.Stores)
	}

	// No goroutine leaks: everything Verify spawned must wind down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutine leak: %d before, %d after", before, got)
	}
}

// deadLoopSrc is a system whose dis thread's only loop sits behind an
// assume no store can make true (x keeps its initial 0). Slicing would
// remove the loop, so a cache that normalized by slicing would answer for
// an acyclic system where Verify without a cache rejects a cyclic one
// (prepass off) or classes it cyclic (prepass on).
const deadLoopSrc = `system deadloop { vars x y; dis d }
thread d { regs r a; r = load x; assume r == 1; while a == 0 { a = load y }; assert false }`

// sameAnswer reports how a cached result (got, gotErr) differs from the
// uncached one (want, wantErr) on everything a caller reads off a verdict,
// or "" when it does not. Classes are compared modulo dis order, because
// the cache verifies the canonical system, whose dis threads may be
// permuted.
func sameAnswer(want paramra.Result, wantErr error, got paramra.Result, gotErr error) string {
	if (gotErr == nil) != (wantErr == nil) ||
		errors.Is(gotErr, paramra.ErrDisCyclic) != errors.Is(wantErr, paramra.ErrDisCyclic) ||
		errors.Is(gotErr, paramra.ErrEnvCAS) != errors.Is(wantErr, paramra.ErrEnvCAS) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if got.Unsafe != want.Unsafe || got.Complete != want.Complete ||
		got.DecidedBy != want.DecidedBy || got.EnvThreadBound != want.EnvThreadBound {
		return fmt.Sprintf("unsafe=%t complete=%t decidedBy=%q bound=%d, want unsafe=%t complete=%t decidedBy=%q bound=%d",
			got.Unsafe, got.Complete, got.DecidedBy, got.EnvThreadBound,
			want.Unsafe, want.Complete, want.DecidedBy, want.EnvThreadBound)
	}
	if sortedClass(got.Class) != sortedClass(want.Class) {
		return fmt.Sprintf("class %s, want %s", got.Class, want.Class)
	}
	return ""
}

// sortedClass renders a class with its dis types in sorted order.
func sortedClass(c lang.SystemClass) string {
	c.Dis = slices.Clone(c.Dis)
	slices.SortFunc(c.Dis, func(a, b lang.ThreadType) int { return strings.Compare(a.String(), b.String()) })
	return c.String()
}

// TestVerifyCacheHitContract: a cache never changes the answer. For every
// corpus entry and the dead-loop fixture, with the prepass on and off and
// no unrolling, the cold (miss) and the warm cached result each equal
// uncached Verify (see sameAnswer). A hit is marked CacheHit and carries
// zero engine stats and no graph.
func TestVerifyCacheHitContract(t *testing.T) {
	dead, err := lang.ParseSystem(deadLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	systems := []*lang.System{dead}
	for _, e := range bench.Corpus() {
		systems = append(systems, e.System())
	}
	ctx := context.Background()
	for _, prepass := range []bool{false, true} {
		for _, sys := range systems {
			t.Run(fmt.Sprintf("%s/prepass=%t", sys.Name, prepass), func(t *testing.T) {
				opts := paramra.Options{Prepass: prepass, Parallelism: 1}
				want, wantErr := paramra.Verify(ctx, sys, opts)
				opts.Cache = paramra.NewCache(paramra.CacheOptions{})
				cold, coldErr := paramra.Verify(ctx, sys, opts)
				if d := sameAnswer(want, wantErr, cold, coldErr); d != "" {
					t.Errorf("cold cached run: %s", d)
				}
				if cold.CacheHit {
					t.Error("cold verify reported CacheHit")
				}
				warm, warmErr := paramra.Verify(ctx, sys, opts)
				if d := sameAnswer(want, wantErr, warm, warmErr); d != "" {
					t.Errorf("warm cached run: %s", d)
				}
				if coldErr != nil || !cold.Complete {
					return // not storable: the warm run recomputed
				}
				if !warm.CacheHit {
					t.Fatal("identical resubmission missed the cache")
				}
				if warm.Stats != (paramra.Stats{}) {
					t.Errorf("hit carries engine stats: %+v", warm.Stats)
				}
				if warm.Graph != nil {
					t.Error("hit carries a dependency graph")
				}
			})
		}
	}
}

// TestVerifyGoalInFingerprint: the goal variable and value and the search
// caps are part of the cache key — same goal hits, a different goal value
// or MaxMacroStates misses.
func TestVerifyGoalInFingerprint(t *testing.T) {
	sys, _ := completeEntry(t)
	goalVar := sys.Vars[0]
	c := paramra.NewCache(paramra.CacheOptions{})
	ctx := context.Background()

	opts := metaOptions(c)
	opts.Goal = &paramra.Goal{Var: goalVar, Val: 1}
	cold, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Complete {
		t.Skipf("goal verify incomplete; nothing cacheable")
	}
	warm, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("same goal missed the cache")
	}

	opts.Goal = &paramra.Goal{Var: goalVar, Val: 0}
	other, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Error("different goal value hit the cache")
	}

	opts.Goal = &paramra.Goal{Var: goalVar, Val: 1}
	opts.MaxMacroStates = 200_000
	capped, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if capped.CacheHit {
		t.Error("changed MaxMacroStates hit the cache")
	}
}

// TestVerifyUnknownGoalBypassesCache: an unknown goal variable takes the
// uncached path — the usual error surfaces and the cache records nothing.
func TestVerifyUnknownGoalBypassesCache(t *testing.T) {
	sys, _ := completeEntry(t)
	c := paramra.NewCache(paramra.CacheOptions{})
	opts := metaOptions(c)
	opts.Goal = &paramra.Goal{Var: "no_such_var", Val: 1}

	_, err := paramra.Verify(context.Background(), sys, opts)
	if err == nil {
		t.Fatal("unknown goal variable did not error")
	}
	s := c.Stats()
	if s.Misses != 0 || s.Hits != 0 || s.Entries != 0 {
		t.Errorf("unknown-goal verify touched the cache: %+v", s)
	}
}
