package engine

import (
	"context"
	"math"
	"sync/atomic"
)

// streamDepthPerWorker bounds, per worker, how many items a Stream holds
// between emitting them and folding their results. emit waits while that
// many are held, so neither the queue nor the results parked behind a
// slower earlier item grow with the length of the stream, and a producer
// that runs ahead of a stopping item wastes at most that much work.
const streamDepthPerWorker = 8

// Stream is Each over a sequence that is produced as it is consumed.
// produce hands items to emit in order; work turns each into a result on
// one of up to workers goroutines, with Each's per-worker contract for w;
// and fold receives the results in emission order, on the goroutine that
// called Stream: inside emit, or after produce has returned.
//
// work also reports whether the stream stops at its item. The stream stops
// at the first item in emission order whose work says so: fold receives
// the results of every item up to and including that one, and of none
// after it. As soon as any work says stop, emit returns false and the ctx
// produce was given is cancelled, so produce should return; later items
// not yet started are skipped, and the ctx of work still running on one is
// cancelled once every earlier item has been folded. emit also returns
// false once ctx is cancelled; work then sees the cancellation too.
//
// With workers ≤ 1, emit runs work and fold inline, and produce sees the
// stop at emit alone. Stream returns produce's error once every work and
// fold call has returned.
func Stream[T, R any](ctx context.Context, workers int, produce func(ctx context.Context, emit func(T) bool) error,
	work func(ctx context.Context, w int, item T) (R, bool), fold func(R)) error {
	if workers <= 1 {
		stopped := false
		return produce(ctx, func(item T) bool {
			if stopped || ctxErr(ctx) != nil {
				return false
			}
			r, stop := work(ctx, 0, item)
			fold(r)
			stopped = stop
			return !stopped
		})
	}

	// wctx is work's: cancelled once the fold reaches the stopping item.
	// pctx is produce's: cancelled as soon as any work says stop.
	wctx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	pctx, cancelProduce := context.WithCancel(wctx)
	defer cancelProduce()
	type job struct {
		i    int
		item T
	}
	type result struct {
		i          int
		res        R
		stop, done bool
	}
	depth := streamDepthPerWorker * workers
	// At most depth items are emitted and not yet folded, so neither
	// channel's sends ever block.
	jobs := make(chan job, depth)
	done := make(chan result, depth)
	// limit is the least index whose work said stop so far.
	var limit atomic.Int64
	limit.Store(math.MaxInt64)
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		// The worker loops must drain every job, so they run whatever ctx
		// says; work sees its cancellation through wctx.
		Each(context.WithoutCancel(ctx), workers, workers, func(w, _ int) {
			for j := range jobs {
				r := result{i: j.i, done: true}
				if int64(j.i) < limit.Load() {
					r.res, r.stop = work(wctx, w, j.item)
				}
				if r.stop {
					for l := limit.Load(); int64(j.i) < l && !limit.CompareAndSwap(l, int64(j.i)); l = limit.Load() {
					}
					cancelProduce()
				}
				done <- r
			}
		})
	}()

	// The results of the held items, by index modulo depth; only this
	// goroutine touches them.
	held := make([]result, depth)
	next, emitted, stopped := 0, 0, false
	// take parks one result and folds every result that is now next in
	// order.
	take := func(r result) {
		held[r.i%depth] = r
		for h := &held[next%depth]; h.done; h = &held[next%depth] {
			if !stopped {
				fold(h.res)
				if h.stop {
					stopped = true
					cancelWork()
				}
			}
			*h = result{}
			next++
		}
	}
	err := produce(pctx, func(item T) bool {
		for {
			select {
			case r := <-done:
				take(r)
				continue
			default:
			}
			if stopped || pctx.Err() != nil {
				return false
			}
			if emitted-next < depth {
				break
			}
			take(<-done)
		}
		jobs <- job{emitted, item}
		emitted++
		return true
	})
	close(jobs)
	for !stopped && next < emitted {
		take(<-done)
	}
	cancelWork()
	<-joined
	return err
}
