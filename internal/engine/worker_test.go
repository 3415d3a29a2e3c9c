package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// probeScratch is the scratch value of the worker-contract tests. inUse is
// raised for the length of each expansion, so an expansion that finds it
// already raised shares its scratch with a concurrent one.
type probeScratch struct {
	inUse atomic.Bool
}

// scratchProbe checks every expansion against the worker contract: one
// scratch per worker, never held by two expansions at once.
type scratchProbe struct {
	t    *testing.T
	mu   sync.Mutex
	seen map[*probeScratch]bool
}

func newScratchProbe(t *testing.T) *scratchProbe {
	return &scratchProbe{t: t, seen: map[*probeScratch]bool{}}
}

func (p *scratchProbe) newScratch() *probeScratch { return new(probeScratch) }

// enter marks sc in use and records it as handed out; leave clears the
// mark. The yield in between gives an overlapping expansion time to show.
func (p *scratchProbe) enter(sc *probeScratch) {
	if !sc.inUse.CompareAndSwap(false, true) {
		p.t.Error("two concurrent expansions hold the same scratch")
	}
	p.mu.Lock()
	p.seen[sc] = true
	p.mu.Unlock()
	runtime.Gosched()
}

func (p *scratchProbe) leave(sc *probeScratch) { sc.inUse.Store(false) }

// distinct is the number of scratch values expansions were handed.
func (p *scratchProbe) distinct() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

func TestWorkerScratchContract(t *testing.T) {
	const workers, n = 8, 40
	key := func(s [2]int) string { return fmt.Sprintf("%d,%d", s[0], s[1]) }

	t.Run("layered", func(t *testing.T) {
		p := newScratchProbe(t)
		expand := func(sc *probeScratch, s [2]int, seen func([]byte) bool, out *[][2]int) {
			p.enter(sc)
			defer p.leave(sc)
			for d := 0; d < 2; d++ {
				ns := s
				ns[d]++
				if ns[d] <= n {
					*out = append(*out, ns)
				}
			}
		}
		commit := func(i int, s [2]int, out *[][2]int, adm *Admitter[[2]int]) any {
			for _, ns := range *out {
				adm.Add(key(ns), ns)
			}
			*out = (*out)[:0]
			return nil
		}
		out := Layered(context.Background(), Config{Workers: workers}, [2]int{0, 0}, "0,0",
			p.newScratch, expand, commit)
		if !out.Complete || out.Stats.States != (n+1)*(n+1) {
			t.Fatalf("outcome %+v, want a complete run over %d states", out, (n+1)*(n+1))
		}
		if out.Stats.PeakFrontier <= serialBelow {
			t.Fatalf("peak frontier %d: the grid never left the serial path", out.Stats.PeakFrontier)
		}
		if d := p.distinct(); d > workers {
			t.Errorf("%d distinct scratch values for %d workers (peak frontier %d)",
				d, workers, out.Stats.PeakFrontier)
		}
	})

	t.Run("explore", func(t *testing.T) {
		p := newScratchProbe(t)
		grid := gridExpand(n)
		expand := func(sc *probeScratch, s [2]int, k string, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
			p.enter(sc)
			defer p.leave(sc)
			return grid(struct{}{}, s, k, buf)
		}
		out := Explore(context.Background(), Config{Workers: workers}, NewShardedMap[struct{}](),
			[2]int{0, 0}, "0,0", struct{}{}, p.newScratch, expand)
		if !out.Complete || out.Stats.States != (n+1)*(n+1) {
			t.Fatalf("outcome %+v, want a complete run over %d states", out, (n+1)*(n+1))
		}
		if d := p.distinct(); d > workers {
			t.Errorf("%d distinct scratch values for %d workers", d, workers)
		}
	})
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 100}, {3, 1000}, {8, 1000}, {8, 3}, {4, 0}} {
		runs := make([]atomic.Int32, tc.n)
		Each(context.Background(), tc.workers, tc.n, func(w, i int) {
			if w < 0 || w >= tc.workers {
				t.Errorf("workers=%d: worker index %d out of range", tc.workers, w)
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}

func TestEachSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Each(ctx, 4, 100, func(w, i int) { t.Errorf("index %d ran under a cancelled context", i) })

	// Cancelled from inside call cancelAt. A worker may have taken one
	// later index before the cancel; those calls wait for it, so none of
	// them can take a further index, and nothing else starts.
	const cancelAt, n = 10, 1000
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		Each(ctx, workers, n, func(w, i int) {
			calls.Add(1)
			switch {
			case i == cancelAt:
				cancel()
			case i > cancelAt:
				<-ctx.Done()
			}
		})
		cancel()
		// Indices 0..cancelAt, plus at most one late call per other worker.
		want := int64(cancelAt + workers)
		if got := calls.Load(); got > want || (workers == 1 && got != want) {
			t.Errorf("workers=%d: %d calls, want at most %d", workers, got, want)
		}
	}
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
