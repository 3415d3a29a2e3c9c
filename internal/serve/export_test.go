package serve

import (
	"context"
	"sync"
	"time"
)

// holdUntilDrain parks every /v1/verify request on s, after its budget has
// started, until s begins draining. The returned channel is closed when the
// first request arrives at the hook.
func holdUntilDrain(s *Server) <-chan struct{} {
	arrived := make(chan struct{})
	var once sync.Once
	s.verifyHook = func(context.Context) {
		once.Do(func() { close(arrived) })
		for !s.Draining() {
			time.Sleep(time.Millisecond)
		}
	}
	return arrived
}

// holdUntilBudgetExpires parks every /v1/verify request on s until its
// verification context is done, so verification starts on an exhausted
// budget however fast it would have run.
func holdUntilBudgetExpires(s *Server) {
	s.verifyHook = func(ctx context.Context) { <-ctx.Done() }
}
