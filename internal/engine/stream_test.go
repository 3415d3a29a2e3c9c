package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// produceN emits 0, 1, … n-1 until emit refuses one, counting what it
// emitted.
func produceN(n int, emitted *int) func(context.Context, func(int) bool) error {
	return func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return nil
			}
			*emitted++
		}
		return nil
	}
}

// TestStreamFoldsInOrder: every emitted item is worked on once and folded
// in emission order, with no two calls for one worker index overlapping,
// at every worker count.
func TestStreamFoldsInOrder(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 8} {
		var busy [8]atomic.Bool
		next, emitted := 0, 0
		work := func(_ context.Context, w, i int) (int, bool) {
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("j=%d: two calls hold worker %d", workers, w)
			}
			if i%7 == 0 {
				runtime.Gosched()
			}
			busy[w].Store(false)
			return i * i, false
		}
		fold := func(r int) {
			if r != next*next {
				t.Errorf("j=%d: folded %d, want %d", workers, r, next*next)
			}
			next++
		}
		if err := Stream(context.Background(), workers, produceN(n, &emitted), work, fold); err != nil {
			t.Fatal(err)
		}
		if next != n || emitted != n {
			t.Errorf("j=%d: folded %d of %d emitted, want %d", workers, next, emitted, n)
		}
	}
}

// TestStreamStopsAtFirstStop: the stream stops at the first item in
// emission order whose work says stop, even when a later one says so
// first. Items up to it are all folded, none after; work still running on
// a later item sees its context cancelled; and emit refuses new items, so
// the producer is not drained to its end.
func TestStreamStopsAtFirstStop(t *testing.T) {
	const n, k = 100_000, 37
	for _, workers := range []int{1, 4} {
		folded, emitted := 0, 0
		release := make(chan struct{})
		work := func(ctx context.Context, _, i int) (int, bool) {
			switch {
			case workers == 1:
			case i == k:
				// Item k+3 stops first; k must still be evaluated and
				// stop the stream in its place.
				<-release
			case i == k+3:
				close(release)
			case i > k:
				// Later items wait for the cancellation, so a stream that
				// did not cancel them would stall here.
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("j=%d: item %d not cancelled", workers, i)
				}
			}
			return i, i == k || i == k+3
		}
		fold := func(i int) {
			if i != folded {
				t.Errorf("j=%d: folded %d, want %d", workers, i, folded)
			}
			folded++
		}
		if err := Stream(context.Background(), workers, produceN(n, &emitted), work, fold); err != nil {
			t.Fatal(err)
		}
		if folded != k+1 {
			t.Errorf("j=%d: folded %d items, want %d", workers, folded, k+1)
		}
		if emitted > k+1+streamDepthPerWorker*workers {
			t.Errorf("j=%d: emitted %d items after a stop at %d", workers, emitted, k)
		}
	}
}

// TestStreamCancel: once ctx is cancelled emit refuses further items and
// Stream returns produce's error.
func TestStreamCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		refused := errors.New("refused")
		produce := func(_ context.Context, emit func(int) bool) error {
			for i := 0; ; i++ {
				if i == 10 {
					cancel()
				}
				if !emit(i) {
					return refused
				}
			}
		}
		work := func(_ context.Context, _, i int) (int, bool) { return i, false }
		err := Stream(ctx, workers, produce, work, func(int) {})
		if !errors.Is(err, refused) {
			t.Errorf("j=%d: Stream returned %v, want produce's error", workers, err)
		}
	}
}
