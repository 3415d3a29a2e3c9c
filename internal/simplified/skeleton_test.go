package simplified_test

import (
	"context"
	"errors"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/simplified"
)

// TestSkeletonsHonourCancellation: the enumeration checks its context once
// per expanded macro-state, so an already-cancelled context stops it before
// any of peterson-ra's 26,136 skeletons is produced.
func TestSkeletonsHonourCancellation(t *testing.T) {
	e, ok := bench.ByName("peterson-ra")
	if !ok {
		t.Fatal("corpus entry peterson-ra missing")
	}
	v, err := simplified.New(e.System(), simplified.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sks, complete, err := v.Skeletons(ctx, 0)
	if !errors.Is(err, context.Canceled) || len(sks) != 0 || complete {
		t.Fatalf("Skeletons under a cancelled context = %d skeletons, complete %v, err %v; want none, false, context.Canceled",
			len(sks), complete, err)
	}
}
