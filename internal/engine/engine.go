// Package engine is the state-space exploration engine behind both the
// simplified-semantics fixpoint (internal/simplified) and the concrete RA
// instance explorer (internal/ra).
//
// It offers two sequential drivers, each on the calling goroutine:
//
//   - Layered: a breadth-first search over one plain visited set. Each
//     layer's states are expanded in admission order, and each expansion
//     admits its successors as it builds them, so verdicts, witnesses and
//     all order-sensitive bookkeeping are fixed by the search alone.
//   - DepthFirst: a depth-first search over one LIFO stack and a plain
//     visited map that also stores a caller value per state (a predecessor
//     edge, for witness reconstruction). Its order, and so its whole
//     result, is fixed by the order in which the expansion admits
//     successors.
//
// Both honor context cancellation and deadlines, cap the number of admitted
// states, count the same statistics, and report progress via an optional
// callback. Tick is the drivers' progress ticker, which the Datalog
// backend's skeleton walk uses too.
package engine

import (
	"sync/atomic"
	"time"

	"paramra/internal/obs"
)

// Config tunes an exploration run.
type Config struct {
	// MaxStates caps the number of admitted states (0 = unlimited). The
	// root counts as the first admitted state.
	MaxStates int
	// StopAtCap ends the run at the first state MaxStates keeps out,
	// instead of expanding the states already admitted (which can still
	// reach a halting successor). A run stopped this way is Capped and
	// reports no halt; a run that is not Capped is exactly the uncapped run.
	StopAtCap bool
	// Progress, when non-nil, is called with a stats snapshot roughly every
	// ProgressEvery (default 250ms) from a dedicated goroutine.
	Progress func(Stats)
	// ProgressEvery is the progress callback interval (0 = 250ms).
	ProgressEvery time.Duration
	// Trace, when non-nil, is the parent span under which the engine
	// records its run span (named SpanName, default "depth-first"/"layered")
	// and, for Layered, one child span per BFS layer.
	Trace *obs.Span
	// SpanName overrides the run span's name.
	SpanName string
	// Metrics, when non-nil, receives live engine gauges (states,
	// transitions, dedup hits, peak frontier) and, for Layered, the layer
	// latency histogram. With a nil registry every instrumentation site is
	// a single pointer check.
	Metrics *obs.Registry
}

func (cfg Config) progressEvery() time.Duration {
	if cfg.ProgressEvery <= 0 {
		return 250 * time.Millisecond
	}
	return cfg.ProgressEvery
}

// Stats is the counters of a run.
type Stats struct {
	// States is the number of distinct states admitted to the visited set
	// (including the root).
	States int64
	// Transitions is the number of successor edges examined.
	Transitions int64
	// DedupHits counts successors dropped because their canonical key was
	// already in the visited set.
	DedupHits int64
	// PeakFrontier is the maximum number of admitted-but-unexpanded states
	// observed at any point: for Layered, the largest BFS layer; for
	// DepthFirst, the deepest stack plus the state being expanded.
	PeakFrontier int64
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
}

// Outcome is the engine-level result of a run.
type Outcome struct {
	Stats Stats
	// Complete is true when the search space was exhausted: no halt, no
	// state cap hit, no cancellation.
	Complete bool
	// Halted is true when a halting successor (violation) ended the run.
	Halted bool
	// HaltParent is the canonical key of the state whose expansion produced
	// the halting successor ("" unless Halted).
	HaltParent string
	// HaltTag is the caller payload attached to the halting successor.
	HaltTag any
	// Capped is true when MaxStates pruned the search.
	Capped bool
	// Err is the context error when the run was cancelled, else nil.
	Err error
}

// counters holds the counters of one run. Only the driver's loop writes
// them; they are atomic because the monitor reads them concurrently.
type counters struct {
	states      atomic.Int64
	transitions atomic.Int64
	dedupHits   atomic.Int64
	peak        atomic.Int64
}

// admit increments the state counter unless the cap is already reached; it
// reports whether the state was admitted.
func (c *counters) admit(maxStates int) bool {
	if maxStates > 0 && c.states.Load() >= int64(maxStates) {
		return false
	}
	c.states.Add(1)
	return true
}

func (c *counters) bumpPeak(n int64) {
	if n > c.peak.Load() {
		c.peak.Store(n)
	}
}

func (c *counters) snapshot(start time.Time) Stats {
	return Stats{
		States:       c.states.Load(),
		Transitions:  c.transitions.Load(),
		DedupHits:    c.dedupHits.Load(),
		PeakFrontier: c.peak.Load(),
		Wall:         time.Since(start),
	}
}

// monitor runs the progress ticker and mirrors live counters into the
// metrics registry. It is nil when both are disabled, and every method is
// nil-safe.
type monitor struct {
	progress func(Stats)
	stopTick func()

	// Resolved registry handles (nil when metrics are disabled).
	gStates, gTransitions, gDedup, gPeak *obs.Gauge
}

// publish mirrors a stats snapshot into the registry gauges.
func (m *monitor) publish(s Stats) {
	m.gStates.Set(s.States)
	m.gTransitions.Set(s.Transitions)
	m.gDedup.Set(s.DedupHits)
	m.gPeak.Set(s.PeakFrontier)
}

// startMonitor launches the observation goroutine when progress or metrics
// are enabled. Call stop with the run's final Stats: it emits that exact
// snapshot as the last progress callback, so the terminal Progress values
// always equal the returned Outcome.Stats.
func startMonitor(cfg Config, cnt *counters, start time.Time) *monitor {
	if cfg.Progress == nil && cfg.Metrics == nil {
		return nil
	}
	m := &monitor{progress: cfg.Progress}
	if r := cfg.Metrics; r != nil {
		m.gStates = r.Gauge("paramra_engine_states", "states admitted to the visited set (current run)")
		m.gTransitions = r.Gauge("paramra_engine_transitions", "successor edges examined (current run)")
		m.gDedup = r.Gauge("paramra_engine_dedup_hits", "successors dropped as already visited (current run)")
		m.gPeak = r.Gauge("paramra_engine_peak_frontier", "largest frontier observed (current run)")
	}
	m.stopTick = Tick(cfg.progressEvery(), func() {
		s := cnt.snapshot(start)
		m.publish(s)
		if m.progress != nil {
			m.progress(s)
		}
	})
	return m
}

// Tick calls f every interval from a goroutine of its own until stop is
// called. stop returns once that goroutine has exited, so f never runs
// after it.
func Tick(every time.Duration, f func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// stop halts the ticker and emits final as the terminal snapshot (both to
// the registry and to the progress callback). Nil-safe.
func (m *monitor) stop(final Stats) {
	if m == nil {
		return
	}
	m.stopTick()
	m.publish(final)
	if m.progress != nil {
		m.progress(final)
	}
}

// spanName picks the run span's name.
func (cfg Config) spanName(def string) string {
	if cfg.SpanName != "" {
		return cfg.SpanName
	}
	return def
}

// finish completes a run's outcome from its halt tag, cap and error, stops
// the monitor with its final stats, and records it on the run span, which
// it ends.
func finish(span *obs.Span, mon *monitor, out Outcome) Outcome {
	out.Halted = out.HaltTag != nil
	out.Complete = !out.Halted && !out.Capped && out.Err == nil
	mon.stop(out.Stats)
	if span != nil {
		span.SetAttr("states", out.Stats.States)
		span.SetAttr("transitions", out.Stats.Transitions)
		span.SetAttr("dedup_hits", out.Stats.DedupHits)
		span.SetAttr("peak_frontier", out.Stats.PeakFrontier)
		span.SetAttr("halted", out.Halted)
		span.SetAttr("capped", out.Capped)
		span.SetAttr("complete", out.Complete)
		span.End()
	}
	return out
}
