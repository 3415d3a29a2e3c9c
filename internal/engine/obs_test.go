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
func chainExpand(n int) func(int, string, *Frontier[int, struct{}]) any {
	return func(s int, _ string, f *Frontier[int, struct{}]) any {
		if s < n {
			f.Add(fmt.Sprint(s+1), s+1, struct{}{})
		}
		return nil
	}
}

// chainLayered runs the chain of chainExpand on Layered.
func chainLayered(cfg Config, n int) Outcome {
	return Layered(context.Background(), cfg, 0, "0", func(s int, adm *Admitter[int]) any {
		if s < n {
			adm.AddTransitions(1)
			adm.AddBytes([]byte(fmt.Sprint(s+1)), s+1)
		}
		return nil
	})
}

// TestFinalProgressEqualsOutcomeStats pins the terminal-snapshot contract:
// the last Progress emission is the exact Stats returned in the Outcome,
// for both drivers.
func TestFinalProgressEqualsOutcomeStats(t *testing.T) {
	var last Stats
	cfg := Config{
		Progress:      func(s Stats) { last = s },
		ProgressEvery: time.Millisecond,
	}
	out := DepthFirst(context.Background(), cfg, map[string]struct{}{}, 0, "0", struct{}{}, chainExpand(200))
	if last != out.Stats {
		t.Errorf("DepthFirst: final progress %+v != outcome stats %+v", last, out.Stats)
	}

	last = Stats{}
	lout := chainLayered(cfg, 200)
	if last != lout.Stats {
		t.Errorf("Layered: final progress %+v != outcome stats %+v", last, lout.Stats)
	}
}

// TestEngineTraceAndMetrics checks both drivers emit schema-valid spans and
// populate the registry.
func TestEngineTraceAndMetrics(t *testing.T) {
	for _, driver := range []string{"depth-first", "layered"} {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		root := tr.Start("test", nil)
		reg := obs.NewRegistry()
		cfg := Config{Trace: root, Metrics: reg}
		if driver == "depth-first" {
			DepthFirst(context.Background(), cfg, map[string]struct{}{}, 0, "0", struct{}{}, chainExpand(50))
		} else {
			chainLayered(cfg, 50)
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
				if s.Attrs["states"] == nil || s.Attrs["complete"] == nil {
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
