package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// gridExpand builds a synthetic search space: states are (x, y) grid points
// reachable by incrementing either coordinate up to n. The space has
// (n+1)^2 states and heavy cross-path dedup. Successors already visited are
// probed with Seen and reported with Dup, as the concrete explorer does.
func gridExpand(n int) func(s [2]int, key string, f *Frontier[[2]int, struct{}]) any {
	return func(s [2]int, _ string, f *Frontier[[2]int, struct{}]) any {
		for d := 0; d < 2; d++ {
			ns := s
			if ns[d]++; ns[d] > n {
				continue
			}
			k := fmt.Sprintf("%d,%d", ns[0], ns[1])
			if f.Seen([]byte(k)) {
				f.Dup()
				continue
			}
			f.Add(k, ns, struct{}{})
		}
		return nil
	}
}

func noScratch() struct{} { return struct{}{} }

// runGrid explores the grid of side n from (0, 0).
func runGrid(cfg Config, n int) Outcome {
	return DepthFirst(context.Background(), cfg, map[string]struct{}{}, [2]int{0, 0}, "0,0", struct{}{}, gridExpand(n))
}

func TestExploreGridCounts(t *testing.T) {
	const n = 40
	out := runGrid(Config{Workers: 8}, n)
	if !out.Complete || out.Halted {
		t.Fatalf("outcome %+v", out)
	}
	want := int64((n + 1) * (n + 1))
	if out.Stats.States != want {
		t.Errorf("states=%d want %d", out.Stats.States, want)
	}
	// Every non-root admission and every dedup hit is one examined edge.
	if got := out.Stats.States - 1 + out.Stats.DedupHits; got != out.Stats.Transitions {
		t.Errorf("states+dedup=%d != transitions=%d (grid has no other edges)", got, out.Stats.Transitions)
	}
	if out.Stats.Workers != 1 {
		t.Errorf("workers=%d, want 1 whatever Config.Workers says", out.Stats.Workers)
	}
}

// TestDepthFirstOrder pins the search order: successors are admitted in
// the order the expansion reports them, and the last one admitted is
// expanded next. The peak frontier is the deepest stack plus the state
// being expanded.
func TestDepthFirstOrder(t *testing.T) {
	var order []int
	expand := func(s int, _ string, f *Frontier[int, struct{}]) any {
		order = append(order, s)
		if s < 4 {
			f.Add(fmt.Sprint(2*s), 2*s, struct{}{})
			f.Add(fmt.Sprint(2*s+1), 2*s+1, struct{}{})
		}
		return nil
	}
	out := DepthFirst(context.Background(), Config{}, map[string]struct{}{}, 1, "1", struct{}{}, expand)
	if want := []int{1, 3, 7, 6, 2, 5, 4}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("expansion order %v, want %v", order, want)
	}
	if out.Stats.States != 7 || out.Stats.PeakFrontier != 4 {
		t.Errorf("states=%d peak=%d, want 7 and 4", out.Stats.States, out.Stats.PeakFrontier)
	}
}

func TestExploreHaltFirstWins(t *testing.T) {
	// A line of states; state 10 has one more successor, then a halting
	// edge that ends the search.
	expand := func(s int, _ string, f *Frontier[int, struct{}]) any {
		f.Add(fmt.Sprint(s+1), s+1, struct{}{})
		if s == 10 {
			return "boom"
		}
		return nil
	}
	out := DepthFirst(context.Background(), Config{}, map[string]struct{}{}, 0, "0", struct{}{}, expand)
	if !out.Halted || out.Complete {
		t.Fatalf("expected halt, got %+v", out)
	}
	if out.HaltTag != "boom" || out.HaltParent != "10" {
		t.Errorf("halt tag/parent = %v/%q", out.HaltTag, out.HaltParent)
	}
	// States 0..11 are admitted; each of 0..10 examines one edge, and the
	// halt is one more.
	if out.Stats.States != 12 || out.Stats.Transitions != 12 {
		t.Errorf("states=%d transitions=%d, want 12 and 12", out.Stats.States, out.Stats.Transitions)
	}
}

func TestExploreStateCapExact(t *testing.T) {
	out := runGrid(Config{MaxStates: 100}, 1000)
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
	type run func(n int, cfg Config) (Outcome, int64)
	depthFirst := func(n int, cfg Config) (Outcome, int64) {
		var expanded int64
		grid := gridExpand(n)
		expand := func(s [2]int, k string, f *Frontier[[2]int, struct{}]) any {
			expanded++
			return grid(s, k, f)
		}
		out := DepthFirst(context.Background(), cfg, map[string]struct{}{}, [2]int{0, 0}, "0,0", struct{}{}, expand)
		return out, expanded
	}
	layeredAt := func(workers int) run {
		return func(n int, cfg Config) (Outcome, int64) {
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
	}
	for name, run := range map[string]run{"depth-first": depthFirst, "layered j=1": layeredAt(1), "layered j=4": layeredAt(4)} {
		_, fullExp := run(1000, Config{MaxStates: 100})
		stop, stopExp := run(1000, Config{MaxStates: 100, StopAtCap: true})
		if !stop.Capped || stop.Complete || stop.Stats.States != 100 {
			t.Errorf("%s: stopped run capped=%v complete=%v states=%d, want capped at 100",
				name, stop.Capped, stop.Complete, stop.Stats.States)
		}
		if stopExp >= fullExp {
			t.Errorf("%s: %d expansions with StopAtCap, %d without", name, stopExp, fullExp)
		}
		small, _ := run(5, Config{MaxStates: 100, StopAtCap: true})
		if !small.Complete || small.Capped || small.Stats.States != 36 {
			t.Errorf("%s: unbinding cap: complete=%v capped=%v states=%d, want all 36",
				name, small.Complete, small.Capped, small.Stats.States)
		}
	}

	// DepthFirst records the state the cap keeps out as visited, counts the
	// rest of that expansion's successors as transitions only, and reports
	// no halt from it.
	visited := map[string]struct{}{}
	out := DepthFirst(context.Background(), Config{MaxStates: 2, StopAtCap: true}, visited, 0, "0", struct{}{},
		func(_ int, _ string, f *Frontier[int, struct{}]) any {
			f.Add("1", 1, struct{}{})
			f.Add("2", 2, struct{}{})
			f.Dup()
			f.Add("3", 3, struct{}{})
			return "boom"
		})
	if out.Halted || !out.Capped || out.Stats.States != 2 || out.Stats.Transitions != 5 || out.Stats.DedupHits != 0 {
		t.Errorf("outcome %+v, want capped at 2 states after 5 transitions, no halt and no dedup hit", out)
	}
	if _, ok := visited["2"]; !ok || len(visited) != 3 {
		t.Errorf("visited %v, want the root, 1 and the kept-out 2", visited)
	}
}

func TestExploreContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	expanded := 0
	expand := func(s int, _ string, f *Frontier[int, struct{}]) any {
		if expanded++; expanded == 50 {
			cancel()
		}
		f.Add(fmt.Sprint(2*s), 2*s, struct{}{})
		f.Add(fmt.Sprint(2*s+1), 2*s+1, struct{}{})
		return nil
	}
	out := DepthFirst(ctx, Config{}, map[string]struct{}{}, 1, "1", struct{}{}, expand)
	if out.Err == nil || out.Complete {
		t.Fatalf("cancelled run reported complete: %+v", out)
	}
	if expanded != 50 {
		t.Errorf("%d expansions, want the search to stop right after the 50th", expanded)
	}
}

func TestExplorePredChainWitness(t *testing.T) {
	// Values store the predecessor key; the chain must be walkable back to
	// the root after the run.
	type pred struct{ prev string }
	expand := func(s int, key string, f *Frontier[int, pred]) any {
		if s == 6 {
			return s
		}
		f.Add(fmt.Sprint(s+2), s+2, pred{prev: key})
		return nil
	}
	visited := map[string]pred{}
	out := DepthFirst(context.Background(), Config{}, visited, 0, "0", pred{}, expand)
	if !out.Halted {
		t.Fatal("no halt")
	}
	steps := 0
	for k := out.HaltParent; k != "0"; steps++ {
		p, ok := visited[k]
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
