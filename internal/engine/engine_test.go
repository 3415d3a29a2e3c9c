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

// TestSlicedRunIsTheOneSliceRun pins resumption on both drivers: a search
// paused before every expansion, or every 7th or 16th, and resumed each
// time, expands the same states in the same order and ends with the same
// outcome as the search in one slice, under a cap that binds, one that
// does not, and a halt.
func TestSlicedRunIsTheOneSliceRun(t *testing.T) {
	key := func(s [2]int) string { return fmt.Sprintf("%d,%d", s[0], s[1]) }
	// run runs a search on the grid of side n, halting at (halt, halt)
	// when halt > 0, in slices of every expansions (0 = one slice), and
	// returns its outcome, expansion order and number of slices.
	type run func(n, halt int, cfg Config, every int) (Outcome, [][2]int, int)
	// inSlices runs a resumable search to its end, pausing it after every
	// expansions of each slice (never with every 0), and returns its
	// outcome and number of slices. expanded counts the expansions.
	inSlices := func(every int, expanded *int, run func(pause func() bool) (Outcome, bool)) (Outcome, int) {
		for slices := 1; ; slices++ {
			from := *expanded
			out, ended := run(func() bool { return every > 0 && *expanded-from >= every })
			if ended {
				return out, slices
			}
		}
	}
	depthFirst := func(n, halt int, cfg Config, every int) (Outcome, [][2]int, int) {
		var order [][2]int
		count := 0
		grid := gridExpand(n)
		s := NewDepthFirst(cfg, map[string]struct{}{}, [2]int{0, 0}, "0,0", struct{}{},
			func(s [2]int, k string, f *Frontier[[2]int, struct{}]) any {
				order = append(order, s)
				count++
				if halt > 0 && s == [2]int{halt, halt} {
					return "halt"
				}
				return grid(s, k, f)
			})
		out, slices := inSlices(every, &count, func(pause func() bool) (Outcome, bool) {
			return s.Run(context.Background(), nil, pause)
		})
		return out, order, slices
	}
	layered := func(n, halt int, cfg Config, every int) (Outcome, [][2]int, int) {
		var order [][2]int
		count := 0
		s := NewLayered(cfg, [2]int{0, 0}, "0,0", func(s [2]int, adm *Admitter[[2]int]) any {
			order = append(order, s)
			count++
			if halt > 0 && s == [2]int{halt, halt} {
				return "halt"
			}
			for d := 0; d < 2; d++ {
				ns := s
				if ns[d]++; ns[d] <= n {
					adm.AddBytes([]byte(key(ns)), ns)
				}
			}
			return nil
		})
		out, slices := inSlices(every, &count, func(pause func() bool) (Outcome, bool) {
			return s.Run(context.Background(), nil, pause)
		})
		return out, order, slices
	}
	same := func(a, b Outcome) bool {
		a.Stats.Wall, b.Stats.Wall = 0, 0
		return a == b
	}
	for name, run := range map[string]run{"depth-first": depthFirst, "layered": layered} {
		for _, c := range []struct {
			name    string
			n, halt int
			cfg     Config
		}{
			{"binding cap", 30, 0, Config{MaxStates: 100}},
			{"unbinding cap", 5, 0, Config{MaxStates: 100}},
			{"halt", 12, 6, Config{}},
		} {
			whole, order, _ := run(c.n, c.halt, c.cfg, 0)
			for _, every := range []int{1, 7, 16} {
				out, sliced, n := run(c.n, c.halt, c.cfg, every)
				if !same(out, whole) {
					t.Errorf("%s, %s, every %d: outcome %+v, in one slice %+v", name, c.name, every, out, whole)
				}
				if !slices.Equal(sliced, order) {
					t.Errorf("%s, %s, every %d: expansion order differs from the one-slice run", name, c.name, every)
				}
				if n < 2 {
					t.Errorf("%s, %s, every %d: ran in %d slice(s)", name, c.name, every, n)
				}
			}
		}
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
	out := layered(context.Background(), Config{}, [2]int{0, 0}, "0,0", expand)

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
	out := layered(context.Background(), Config{}, 1, "1", expand)
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

// TestLayeredPausesBetweenExpansions: a pause takes effect before the next
// expansion, not inside one, so the expansion in which the cap first keeps
// a state out runs to its end, and a resumed search goes on with the next
// state of the same layer; a Stopped search emits its counters as its
// last Progress snapshot.
func TestLayeredPausesBetweenExpansions(t *testing.T) {
	var expanded, refused []int
	expand := func(s int, adm *Admitter[int]) any {
		expanded = append(expanded, s)
		for _, ns := range []int{2 * s, 2*s + 1} {
			if !adm.AddBytes([]byte(fmt.Sprint(ns)), ns) {
				refused = append(refused, ns)
			}
		}
		return nil
	}
	var last Stats
	s := NewLayered(Config{MaxStates: 5, Progress: func(st Stats) { last = st }}, 1, "1", expand)
	out, ended := s.Run(context.Background(), nil, func() bool { return s.States() >= 5 })
	// 1 admits 2 and 3, 2 admits 4 and 5, and the pause comes before 3.
	if ended || out.Complete || out.Stats.States != 5 {
		t.Errorf("first slice: ended %v, %+v; want paused at 5 states", ended, out)
	}
	if want := []int{1, 2}; !slices.Equal(expanded, want) {
		t.Errorf("expanded %v, want %v", expanded, want)
	}
	out, ended = s.Run(context.Background(), nil, func() bool { return len(expanded) == 3 })
	// 3's successors are kept out by the cap.
	if ended || !out.Capped || !slices.Equal(refused, []int{6, 7}) {
		t.Errorf("second slice: ended %v, %+v, refused %v; want paused, capped, 6 and 7 refused", ended, out, refused)
	}
	st := s.Stop()
	if st != last || st.States != 5 {
		t.Errorf("Stop: %+v, last Progress snapshot %+v", st, last)
	}
	if out, ended := s.Run(context.Background(), nil, nil); !ended || out.Stats != st || len(expanded) != 3 {
		t.Errorf("Run after Stop: ended %v, %+v, %d expansions", ended, out, len(expanded))
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
			out := layered(ctx, Config{}, 1, "1", expand)
			if out.Err == nil || out.Complete || out.Halted {
				t.Errorf("outcome %+v, want a cancelled run with no halt", out)
			}
			if got := expanded[len(expanded)-1]; got != tc.cancelAt {
				t.Errorf("last expansion %d, want %d", got, tc.cancelAt)
			}
		})
	}
}

// layered runs a breadth-first search in one slice, under cfg.Trace.
func layered[S any](ctx context.Context, cfg Config, root S, rootKey string, expand func(S, *Admitter[S]) any) Outcome {
	l := NewLayered(cfg, root, rootKey, expand)
	out, _ := l.Run(ctx, cfg.Trace, nil)
	return out
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
