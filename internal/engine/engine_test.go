package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
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

// runGrid explores the grid of side n from (0, 0).
func runGrid(cfg Config, n int) Outcome {
	return DepthFirst(context.Background(), cfg, map[string]struct{}{}, [2]int{0, 0}, "0,0", struct{}{}, gridExpand(n))
}

func TestExploreGridCounts(t *testing.T) {
	const n = 40
	out := runGrid(Config{}, n)
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
	layered := func(n int, cfg Config) (Outcome, int64) {
		var expanded int64
		expand := func(s [2]int, adm *Admitter[[2]int]) any {
			expanded++
			for d := 0; d < 2; d++ {
				ns := s
				if ns[d]++; ns[d] <= n {
					adm.AddBytes([]byte(key(ns)), ns)
				}
			}
			return nil
		}
		out := Layered(context.Background(), cfg, [2]int{0, 0}, "0,0", expand)
		return out, expanded
	}
	for name, run := range map[string]run{"depth-first": depthFirst, "layered": layered} {
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

// TestLayeredGridOrder pins Layered's order on the grid: it admits states
// exactly as a plain breadth-first search over a queue does, expanding each
// layer in admission order, and counts every examined edge as an admission
// or a dedup hit.
func TestLayeredGridOrder(t *testing.T) {
	const n = 40
	key := func(s [2]int) string { return fmt.Sprintf("%d,%d", s[0], s[1]) }
	succs := func(s [2]int) (out [][2]int) {
		for d := 0; d < 2; d++ {
			ns := s
			if ns[d]++; ns[d] <= n {
				out = append(out, ns)
			}
		}
		return out
	}

	var order []string
	expand := func(s [2]int, adm *Admitter[[2]int]) any {
		next := succs(s)
		adm.AddTransitions(int64(len(next)))
		for _, ns := range next {
			if adm.AddBytes([]byte(key(ns)), ns) {
				order = append(order, key(ns))
			}
		}
		return nil
	}
	out := Layered(context.Background(), Config{}, [2]int{0, 0}, "0,0", expand)

	var want []string
	seen := map[string]bool{"0,0": true}
	for queue := [][2]int{{0, 0}}; len(queue) > 0; queue = queue[1:] {
		for _, ns := range succs(queue[0]) {
			if k := key(ns); !seen[k] {
				seen[k] = true
				want = append(want, k)
				queue = append(queue, ns)
			}
		}
	}
	if !slices.Equal(order, want) {
		t.Errorf("admission order differs from a plain BFS (%d vs %d states)", len(order), len(want))
	}
	if !out.Complete || out.Stats.States != (n+1)*(n+1) {
		t.Errorf("outcome %+v, want complete over %d states", out, (n+1)*(n+1))
	}
	// The widest layer is the grid's longest anti-diagonal.
	if out.Stats.PeakFrontier != n+1 {
		t.Errorf("peak frontier %d, want %d", out.Stats.PeakFrontier, n+1)
	}
	if got := out.Stats.States - 1 + out.Stats.DedupHits; got != out.Stats.Transitions {
		t.Errorf("states+dedup=%d != transitions=%d", got, out.Stats.Transitions)
	}
}

// TestLayeredHaltFirstInOrder: every state of a binary tree's third layer
// halts; the first one in layer order wins, nothing after it is expanded,
// and the successors its expansion admitted before halting stay admitted.
func TestLayeredHaltFirstInOrder(t *testing.T) {
	var expanded []int
	expand := func(s int, adm *Admitter[int]) any {
		expanded = append(expanded, s)
		adm.AddBytes([]byte(fmt.Sprint(2*s)), 2*s)
		if depthOf(s) == 3 {
			return fmt.Sprintf("halt-%d", s)
		}
		adm.AddBytes([]byte(fmt.Sprint(2*s+1)), 2*s+1)
		return nil
	}
	out := Layered(context.Background(), Config{}, 1, "1", expand)
	if !out.Halted || out.Complete || out.HaltTag != "halt-8" {
		t.Errorf("halted=%v complete=%v tag=%v, want halt-8", out.Halted, out.Complete, out.HaltTag)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(expanded, want) {
		t.Errorf("expanded %v, want %v", expanded, want)
	}
	// 15 states in the first four layers, plus 16 admitted by 8.
	if out.Stats.States != 16 {
		t.Errorf("states=%d, want 16", out.Stats.States)
	}
}

// TestLayeredStopAtCapEndsAfterTheExpansion: with StopAtCap the run ends
// after the expansion in which the cap first keeps a state out, not at
// that state: the rest of the expansion still runs, and its halt tag loses
// to the cap.
func TestLayeredStopAtCapEndsAfterTheExpansion(t *testing.T) {
	var expanded []int
	var refused []int
	expand := func(s int, adm *Admitter[int]) any {
		expanded = append(expanded, s)
		for _, ns := range []int{2 * s, 2*s + 1} {
			if !adm.AddBytes([]byte(fmt.Sprint(ns)), ns) {
				refused = append(refused, ns)
			}
		}
		if s == 3 {
			return "boom"
		}
		return nil
	}
	out := Layered(context.Background(), Config{MaxStates: 5, StopAtCap: true}, 1, "1", expand)
	// 1 admits 2 and 3, 2 admits 4 and 5, and the cap keeps out both of
	// 3's successors.
	if want := []int{1, 2, 3}; !slices.Equal(expanded, want) {
		t.Errorf("expanded %v, want %v", expanded, want)
	}
	if want := []int{6, 7}; !slices.Equal(refused, want) {
		t.Errorf("refused %v, want %v", refused, want)
	}
	if !out.Capped || out.Halted || out.Complete || out.Stats.States != 5 {
		t.Errorf("outcome %+v, want capped at 5 states with no halt", out)
	}
}

// TestLayeredCancelBetweenExpansions: a cancellation is seen right after
// the expansion during which it happened, also when that expansion is the
// search's last one or reports a halt.
func TestLayeredCancelBetweenExpansions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cancelAt int  // state whose expansion cancels
		last     int  // states beyond it have no successors
		halt     bool // the cancelling expansion also reports a halt
	}{
		{"mid-layer", 10, 1 << 20, false},
		{"last-expansion", 15, 15, false},
		{"with-halt", 10, 1 << 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var expanded []int
			expand := func(s int, adm *Admitter[int]) any {
				expanded = append(expanded, s)
				if 2*s+1 <= tc.last {
					adm.AddBytes([]byte(fmt.Sprint(2*s)), 2*s)
					adm.AddBytes([]byte(fmt.Sprint(2*s+1)), 2*s+1)
				}
				if s == tc.cancelAt {
					cancel()
					if tc.halt {
						return "boom"
					}
				}
				return nil
			}
			out := Layered(ctx, Config{}, 1, "1", expand)
			if out.Err == nil || out.Complete || out.Halted {
				t.Errorf("outcome %+v, want a cancelled run with no halt", out)
			}
			if got := expanded[len(expanded)-1]; got != tc.cancelAt {
				t.Errorf("last expansion %d, want %d", got, tc.cancelAt)
			}
		})
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

func TestTickStopWaitsForTheGoroutine(t *testing.T) {
	var ticks atomic.Int64
	var inF atomic.Bool
	first := make(chan struct{})
	stop := Tick(time.Microsecond, func() {
		inF.Store(true)
		if ticks.Add(1) == 1 {
			close(first)
		}
		time.Sleep(time.Millisecond)
		inF.Store(false)
	})
	<-first
	stop()
	if inF.Load() {
		t.Fatal("f still running after stop returned")
	}
	n := ticks.Load()
	time.Sleep(5 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Errorf("%d ticks after stop returned", got-n)
	}
}
