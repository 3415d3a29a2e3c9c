package ra_test

import (
	"fmt"
	"math/rand"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/ra"
)

// TestSuccessorsLeaveParentAndSiblings: a thread-local successor shares its
// parent's memory and the other threads' registers and views. On random
// walks over the corpus instances, materializing a state's successors
// leaves each with the key the explorers probed before materializing it,
// and expanding each of them never changes the key of the state or of a
// successor built before.
func TestSuccessorsLeaveParentAndSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, e := range bench.Corpus() {
		sys := e.System()
		for n := 0; n <= 2; n++ {
			if n > 0 && sys.Env == nil {
				break
			}
			inst, err := ra.NewInstance(sys, n)
			if err != nil {
				t.Fatal(err)
			}
			for walk := 0; walk < 3; walk++ {
				s := inst.InitState()
				for depth := 0; depth < 40; depth++ {
					name := fmt.Sprintf("%s/n=%d walk %d depth %d", e.Name, n, walk, depth)
					key := s.Key()
					probed := inst.KeyedSuccessors(s, false)
					succs := inst.Successors(s)
					if len(succs) != len(probed) {
						t.Fatalf("%s: %d successors, %d probed", name, len(succs), len(probed))
					}
					if len(succs) == 0 {
						break
					}
					keys := make([]string, len(succs))
					for i, su := range succs {
						keys[i] = su.State.Key()
						if keys[i] != probed[i].Key {
							t.Fatalf("%s: successor %d (%s) changed once its siblings were materialized", name, i, su.Event.Op)
						}
						inst.Successors(su.State)
						if s.Key() != key {
							t.Fatalf("%s: expanding successor %d (%s) changed its parent", name, i, su.Event.Op)
						}
						for j := 0; j <= i; j++ {
							if succs[j].State.Key() != keys[j] {
								t.Fatalf("%s: building and expanding successor %d (%s) changed successor %d (%s)",
									name, i, su.Event.Op, j, succs[j].Event.Op)
							}
						}
					}
					s = succs[rng.Intn(len(succs))].State
				}
			}
		}
	}
}
