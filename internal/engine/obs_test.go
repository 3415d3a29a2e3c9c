package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"paramra/internal/obs"
)

// chainExpand builds a linear state space 0 → 1 → … → n.
func chainExpand(n int) func(int, string, []Succ[int, struct{}]) []Succ[int, struct{}] {
	return func(s int, key string, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		if s >= n {
			return buf
		}
		return append(buf, Succ[int, struct{}]{State: s + 1, Key: fmt.Sprint(s + 1)})
	}
}

// TestFinalProgressEqualsOutcomeStats pins the terminal-snapshot contract:
// the last Progress emission is the exact Stats returned in the Outcome,
// for both drivers.
func TestFinalProgressEqualsOutcomeStats(t *testing.T) {
	var last Stats
	cfg := Config{
		Workers:       2,
		Progress:      func(s Stats) { last = s },
		ProgressEvery: time.Millisecond,
	}
	out := Explore(context.Background(), cfg, NewShardedMap[struct{}](), 0, "0", struct{}{}, chainExpand(200))
	if last != out.Stats {
		t.Errorf("Explore: final progress %+v != outcome stats %+v", last, out.Stats)
	}

	last = Stats{}
	lout := Layered(context.Background(), cfg, 0, "0",
		func(s int, seen func([]byte) bool) []Succ[int, struct{}] { return chainExpand(200)(s, "", nil) },
		func(i int, s int, succs []Succ[int, struct{}], adm *Admitter[int]) any {
			adm.AddTransitions(int64(len(succs)))
			for _, sc := range succs {
				adm.Add(sc.Key, sc.State)
			}
			return nil
		})
	if last != lout.Stats {
		t.Errorf("Layered: final progress %+v != outcome stats %+v", last, lout.Stats)
	}
}

// TestEngineTraceAndMetrics checks both drivers emit schema-valid spans and
// populate the registry.
func TestEngineTraceAndMetrics(t *testing.T) {
	for _, driver := range []string{"explore", "layered"} {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		root := tr.Start("test", nil)
		reg := obs.NewRegistry()
		cfg := Config{Workers: 2, Trace: root, Metrics: reg}
		if driver == "explore" {
			Explore(context.Background(), cfg, NewShardedMap[struct{}](), 0, "0", struct{}{}, chainExpand(50))
		} else {
			Layered(context.Background(), cfg, 0, "0",
				func(s int, seen func([]byte) bool) []Succ[int, struct{}] { return chainExpand(50)(s, "", nil) },
				func(i int, s int, succs []Succ[int, struct{}], adm *Admitter[int]) any {
					for _, sc := range succs {
						adm.Add(sc.Key, sc.State)
					}
					return nil
				})
		}
		root.End()
		if err := tr.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", driver, err)
		}
		spans, err := obs.ParseTrace(&buf)
		if err != nil {
			t.Fatalf("%s: invalid trace: %v", driver, err)
		}
		var found bool
		for _, s := range spans {
			if s.Name == driver {
				found = true
				if s.Attrs["states"] == nil || s.Attrs["workers"] == nil {
					t.Errorf("%s: run span missing attrs: %+v", driver, s.Attrs)
				}
			}
		}
		if !found {
			t.Errorf("%s: no run span in trace (spans: %v)", driver, spans)
		}
		if got := reg.Gauge("paramra_engine_states", "").Value(); got != 51 {
			t.Errorf("%s: states gauge = %d, want 51", driver, got)
		}
		if driver == "layered" {
			var layers int
			for _, s := range spans {
				if s.Name == "layer" {
					layers++
				}
			}
			// 51 states in a chain: 51 layers of size 1 (the last yields no
			// successors and closes the loop).
			if layers != 51 {
				t.Errorf("layered: %d layer spans, want 51", layers)
			}
		}
	}
}

func TestShardStats(t *testing.T) {
	sm := NewShardedMap[struct{}]()
	mx, used := sm.ShardStats()
	if mx != 0 || used != 0 {
		t.Errorf("empty map: max=%d nonempty=%d", mx, used)
	}
	for i := 0; i < 1000; i++ {
		sm.TryPut(fmt.Sprint(i), struct{}{})
	}
	mx, used = sm.ShardStats()
	if used == 0 || mx == 0 || mx > 1000 {
		t.Errorf("populated map: max=%d nonempty=%d", mx, used)
	}
	if sm.Len() != 1000 {
		t.Errorf("len = %d", sm.Len())
	}
}
