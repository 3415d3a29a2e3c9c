package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// gridExpand builds a synthetic search space: states are (x, y) grid points
// reachable by incrementing either coordinate up to n. The space has
// (n+1)^2 states and heavy cross-path dedup, exercising the sharded set.
// It needs no scratch; noScratch is the factory of such expansions.
func gridExpand(n int) func(_ struct{}, s [2]int, key string, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
	return func(_ struct{}, s [2]int, key string, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
		out := buf
		for d := 0; d < 2; d++ {
			ns := s
			ns[d]++
			if ns[d] <= n {
				out = append(out, Succ[[2]int, struct{}]{State: ns, Key: fmt.Sprintf("%d,%d", ns[0], ns[1])})
			}
		}
		return out
	}
}

func noScratch() struct{} { return struct{}{} }

func TestExploreGridCounts(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 8} {
		out := Explore(context.Background(), Config{Workers: workers}, NewShardedMap[struct{}](),
			[2]int{0, 0}, "0,0", struct{}{}, noScratch, gridExpand(n))
		if !out.Complete || out.Halted {
			t.Fatalf("workers=%d: outcome %+v", workers, out)
		}
		want := int64((n + 1) * (n + 1))
		if out.Stats.States != want {
			t.Errorf("workers=%d: states=%d want %d", workers, out.Stats.States, want)
		}
		// Every non-root admission and every dedup hit is one examined edge.
		if got := out.Stats.States - 1 + out.Stats.DedupHits; got != out.Stats.Transitions {
			t.Errorf("workers=%d: states+dedup=%d != transitions=%d (grid has no other edges)",
				workers, got, out.Stats.Transitions)
		}
	}
}

func TestExploreHaltFirstWins(t *testing.T) {
	// A line of states with a halting edge at the end.
	expand := func(_ struct{}, s int, key string, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		if s == 10 {
			return append(buf, Succ[int, struct{}]{Halt: true, Tag: "boom"})
		}
		return append(buf, Succ[int, struct{}]{State: s + 1, Key: fmt.Sprintf("%d", s+1)})
	}
	for _, workers := range []int{1, 4} {
		out := Explore(context.Background(), Config{Workers: workers}, NewShardedMap[struct{}](), 0, "0", struct{}{}, noScratch, expand)
		if !out.Halted || out.Complete {
			t.Fatalf("workers=%d: expected halt, got %+v", workers, out)
		}
		if out.HaltTag != "boom" || out.HaltParent != "10" {
			t.Errorf("workers=%d: halt tag/parent = %v/%q", workers, out.HaltTag, out.HaltParent)
		}
	}
}

func TestExploreStateCapExact(t *testing.T) {
	out := Explore(context.Background(), Config{Workers: 4, MaxStates: 100}, NewShardedMap[struct{}](),
		[2]int{0, 0}, "0,0", struct{}{}, noScratch, gridExpand(1000))
	if out.Complete || !out.Capped {
		t.Fatalf("capped run reported complete: %+v", out)
	}
	if out.Stats.States != 100 {
		t.Errorf("state cap overshot: %d", out.Stats.States)
	}
}

// TestStopAtCap pins StopAtCap on both drivers: a run whose cap binds ends
// at the first state it keeps out, Capped and with fewer expansions than a
// run that expands every admitted state; a run whose cap never binds is the
// uncapped run.
func TestStopAtCap(t *testing.T) {
	key := func(s [2]int) string { return fmt.Sprintf("%d,%d", s[0], s[1]) }
	explore := func(workers, n int, cfg Config) (Outcome, int64) {
		var expanded atomic.Int64
		grid := gridExpand(n)
		expand := func(w struct{}, s [2]int, k string, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
			expanded.Add(1)
			return grid(w, s, k, buf)
		}
		cfg.Workers = workers
		out := Explore(context.Background(), cfg, NewShardedMap[struct{}](), [2]int{0, 0}, "0,0", struct{}{}, noScratch, expand)
		return out, expanded.Load()
	}
	layered := func(workers, n int, cfg Config) (Outcome, int64) {
		var expanded atomic.Int64
		expand := func(_ struct{}, s [2]int, _ func([]byte) bool, e *[][2]int) {
			expanded.Add(1)
			*e = (*e)[:0]
			for d := 0; d < 2; d++ {
				ns := s
				if ns[d]++; ns[d] <= n {
					*e = append(*e, ns)
				}
			}
		}
		commit := func(_ int, _ [2]int, e *[][2]int, adm *Admitter[[2]int]) any {
			for _, ns := range *e {
				adm.Add(key(ns), ns)
			}
			return nil
		}
		cfg.Workers = workers
		out := Layered(context.Background(), cfg, [2]int{0, 0}, "0,0", noScratch, expand, commit)
		return out, expanded.Load()
	}
	for name, run := range map[string]func(int, int, Config) (Outcome, int64){"explore": explore, "layered": layered} {
		for _, workers := range []int{1, 4} {
			_, fullExp := run(workers, 1000, Config{MaxStates: 100})
			stop, stopExp := run(workers, 1000, Config{MaxStates: 100, StopAtCap: true})
			if !stop.Capped || stop.Complete || stop.Stats.States != 100 {
				t.Errorf("%s j=%d: stopped run capped=%v complete=%v states=%d, want capped at 100",
					name, workers, stop.Capped, stop.Complete, stop.Stats.States)
			}
			if stopExp >= fullExp {
				t.Errorf("%s j=%d: %d expansions with StopAtCap, %d without", name, workers, stopExp, fullExp)
			}
			small, _ := run(workers, 5, Config{MaxStates: 100, StopAtCap: true})
			if !small.Complete || small.Capped || small.Stats.States != 36 {
				t.Errorf("%s j=%d: unbinding cap: complete=%v capped=%v states=%d, want all 36",
					name, workers, small.Complete, small.Capped, small.Stats.States)
			}
		}
	}
}

func TestExploreContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var expanded atomic.Int64
	expand := func(_ struct{}, s int, key string, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		if expanded.Add(1) == 50 {
			cancel()
		}
		time.Sleep(time.Microsecond)
		return append(buf,
			Succ[int, struct{}]{State: 2 * s, Key: fmt.Sprintf("%d", 2*s)},
			Succ[int, struct{}]{State: 2*s + 1, Key: fmt.Sprintf("%d", 2*s+1)},
		)
	}
	out := Explore(ctx, Config{Workers: 4}, NewShardedMap[struct{}](), 1, "1", struct{}{}, noScratch, expand)
	if out.Err == nil || out.Complete {
		t.Fatalf("cancelled run reported complete: %+v", out)
	}
}

func TestExplorePredChainWitness(t *testing.T) {
	// Values store the predecessor key; the chain must be walkable back to
	// the root after the run.
	type pred struct{ prev string }
	expand := func(_ struct{}, s int, key string, buf []Succ[int, pred]) []Succ[int, pred] {
		if s == 6 {
			return append(buf, Succ[int, pred]{Halt: true, Tag: s})
		}
		return append(buf, Succ[int, pred]{State: s + 2, Key: fmt.Sprintf("%d", s+2), Val: pred{prev: key}})
	}
	visited := NewShardedMap[pred]()
	out := Explore(context.Background(), Config{Workers: 3}, visited, 0, "0", pred{}, noScratch, expand)
	if !out.Halted {
		t.Fatal("no halt")
	}
	steps := 0
	for k := out.HaltParent; k != "0"; steps++ {
		p, ok := visited.Get(k)
		if !ok {
			t.Fatalf("broken pred chain at %q", k)
		}
		k = p.prev
	}
	if steps != 3 {
		t.Errorf("pred chain length = %d, want 3", steps)
	}
}

func TestLayeredDeterministicAcrossWorkers(t *testing.T) {
	// Expansion yields successors whose commit order determines a recorded
	// trace; the trace must be identical for every worker count. The grid's
	// layers grow past serialBelow, so at j>1 the seen probes run
	// concurrently against the visited set.
	const n = 40
	type exp struct {
		succs [][2]int
		dedup int64
	}
	key := func(s [2]int) string { return fmt.Sprintf("%d,%d", s[0], s[1]) }
	run := func(workers int) ([]string, Outcome) {
		var trace []string
		expand := func(_ struct{}, s [2]int, seen func([]byte) bool, e *exp) {
			for d := 0; d < 2; d++ {
				ns := s
				ns[d]++
				if ns[d] > n {
					continue
				}
				if seen([]byte(key(ns))) {
					e.dedup++
					continue
				}
				e.succs = append(e.succs, ns)
			}
		}
		commit := func(i int, s [2]int, e *exp, adm *Admitter[[2]int]) any {
			adm.AddTransitions(int64(len(e.succs)) + e.dedup)
			adm.AddDedup(e.dedup)
			for _, ns := range e.succs {
				if adm.Add(key(ns), ns) {
					trace = append(trace, key(ns))
				}
			}
			e.succs, e.dedup = e.succs[:0], 0
			return nil
		}
		out := Layered(context.Background(), Config{Workers: workers}, [2]int{0, 0}, "0,0", noScratch, expand, commit)
		return trace, out
	}
	base, baseOut := run(1)
	if want := int64((n + 1) * (n + 1)); baseOut.Stats.States != want {
		t.Fatalf("states=%d want %d", baseOut.Stats.States, want)
	}
	for _, workers := range []int{2, 8} {
		got, out := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: trace length %d vs %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: admission order diverges at %d: %q vs %q", workers, i, got[i], base[i])
			}
		}
		if o, b := out.Stats, baseOut.Stats; o.States != b.States || o.Transitions != b.Transitions || o.DedupHits != b.DedupHits {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", workers, o, b)
		}
		// Every examined edge is either admitted or a dedup hit.
		if got := out.Stats.States - 1 + out.Stats.DedupHits; got != out.Stats.Transitions {
			t.Errorf("workers=%d: states+dedup=%d != transitions=%d", workers, got, out.Stats.Transitions)
		}
	}
}

func TestLayeredHaltFirstInOrder(t *testing.T) {
	// Two items of the same layer can halt; the lower index must win for
	// every worker count.
	expand := func(_ struct{}, s int, seen func([]byte) bool, e *int) { *e = s }
	commit := func(i int, s int, e *int, adm *Admitter[int]) any {
		if depthOf(s) == 3 {
			return fmt.Sprintf("halt-%d", i)
		}
		adm.Add(fmt.Sprintf("%d", 2*s), 2*s)
		adm.Add(fmt.Sprintf("%d", 2*s+1), 2*s+1)
		return nil
	}
	for _, workers := range []int{1, 2, 8} {
		out := Layered(context.Background(), Config{Workers: workers}, 1, "1", noScratch, expand, commit)
		if !out.Halted || out.HaltTag != "halt-0" {
			t.Errorf("workers=%d: halt tag %v, want halt-0", workers, out.HaltTag)
		}
	}
}

func depthOf(s int) int {
	d := 0
	for s > 1 {
		s /= 2
		d++
	}
	return d
}

func TestShardedMapBasics(t *testing.T) {
	sm := NewShardedMap[int]()
	if !sm.TryPut("a", 1) || sm.TryPut("a", 2) {
		t.Fatal("TryPut semantics wrong")
	}
	if v, ok := sm.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := sm.Get("b"); ok {
		t.Fatal("phantom key")
	}
	for i := 0; i < 1000; i++ {
		sm.TryPut(fmt.Sprintf("k%d", i), i)
	}
	if sm.Len() != 1001 {
		t.Fatalf("Len = %d", sm.Len())
	}
}
