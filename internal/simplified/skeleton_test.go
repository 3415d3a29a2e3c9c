package simplified_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
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

// TestSkeletonShared pins Shared, the number of leading steps a skeleton
// shares with the one before it in the walk: 0 for the first, never more
// than the steps the two have in common, and less than the skeleton's own
// steps, since no walk path is a prefix of another. On the corpus, where
// no state has two moves that render as the same step, it is exactly the
// length of the common prefix; a generated system may have two such moves
// (two edges with one operation), whose paths part where their steps still
// read alike.
func TestSkeletonShared(t *testing.T) {
	check := func(t *testing.T, sys *lang.System, maxPaths int, exact bool) {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			return
		}
		sks, _, err := v.Skeletons(context.Background(), maxPaths)
		if err != nil {
			t.Fatal(err)
		}
		for i, sk := range sks {
			common := 0
			if i > 0 {
				prev := sks[i-1].Steps
				for common < len(prev) && common < len(sk.Steps) && reflect.DeepEqual(prev[common], sk.Steps[common]) {
					common++
				}
			}
			if sk.Shared > common || exact && sk.Shared != common || i > 0 && sk.Shared >= len(sk.Steps) {
				t.Fatalf("skeleton %d of %d steps: Shared %d, common prefix %d", i, len(sk.Steps), sk.Shared, common)
			}
		}
	}
	for _, e := range bench.Corpus() {
		t.Run(e.Name, func(t *testing.T) { check(t, e.System(), 100_000, true) })
	}
	for seed := int64(0); seed < 300; seed++ {
		check(t, fuzzgen.Generate(seed, fuzzgen.DefaultProfile()), 3000, false)
	}
}
