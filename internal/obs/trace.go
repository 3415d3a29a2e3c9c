// Package obs is the repository's observability layer: a hierarchical
// phase-span tracer emitting JSONL events, a race-safe metrics registry
// with Prometheus text, expvar and JSON exposition, and profiling hooks.
// It is stdlib-only and built around a strict nil fast path: every method
// on a nil *Tracer, *Span or *Registry is a no-op behind a single pointer
// check, so fully disabled observability costs one predictable branch per
// call site.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// traceEvent is one JSONL line of a trace. "b" begins a span, "e" ends it.
// Timestamps are monotonic nanoseconds since the tracer was created, read
// under the writer lock, so the event stream is non-decreasing in T.
type traceEvent struct {
	Ev     string         `json:"ev"`             // "b" | "e"
	ID     int64          `json:"id"`             // span id, 1-based per tracer
	Parent int64          `json:"par,omitempty"`  // parent span id (0 = root)
	Name   string         `json:"name,omitempty"` // span name ("b" only)
	T      int64          `json:"t"`              // monotonic ns since tracer start
	TID    string         `json:"tid,omitempty"`  // trace ID ("b" only, when set)
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Tracer records hierarchical phase spans as JSONL events. Span IDs are a
// per-tracer sequence, so any code path that starts spans in a fixed order
// (the pipeline phases, the layered engine's sequential layer loop) gets
// identical IDs on every run and at every worker count. The tracer is safe
// for concurrent use; individual spans are too (attrs are mutex-guarded).
type Tracer struct {
	mu   sync.Mutex
	w    io.Writer
	next int64
	now  func() int64
	tid  string
	err  error // first write/encode error, sticky
}

// NewTracer writes JSONL trace events to w, timestamped with monotonic
// nanoseconds since this call. Each event is one Write, made as the event
// happens; a caller writing to a file buffers it (see Session).
func NewTracer(w io.Writer) *Tracer {
	start := time.Now()
	return NewTracerClock(w, func() int64 { return int64(time.Since(start)) })
}

// NewTracerClock is NewTracer with an injected clock (monotonic,
// nanoseconds). Tests use a deterministic counter clock to produce
// byte-identical golden traces.
func NewTracerClock(w io.Writer, now func() int64) *Tracer {
	return &Tracer{w: w, now: now}
}

// SetTraceID stamps every subsequently started span with the given trace ID
// (the "tid" field of its begin event). Request-scoped tracers set it once,
// before any span starts, so every span of the request's tree carries the
// same correlation ID that the access log and the response envelope show.
// Nil-safe.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tid = id
	t.mu.Unlock()
}

// TraceID returns the ID set with SetTraceID (empty otherwise). Nil-safe.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tid
}

// emit writes one event; the clock is read under the lock so T is
// non-decreasing across the whole file.
func (t *Tracer) emit(ev traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.T = t.now()
	if ev.Ev == "b" {
		ev.TID = t.tid
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}

// Start begins a span. parent nil makes a root span. Nil-safe: on a nil
// tracer it returns nil, and every method of a nil *Span is a no-op.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &Span{t: t, id: id}
	var par int64
	if parent != nil {
		par = parent.id
	}
	t.emit(traceEvent{Ev: "b", ID: id, Parent: par, Name: name})
	return s
}

// Flush returns the first error the tracer hit (write or encode). Events
// reach the writer as they are emitted, so there is nothing to drain; a
// caller that buffers the writer flushes that buffer itself.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Span is one phase of a run. End emits the "e" event carrying the attrs
// accumulated via SetAttr; a span must be ended exactly once (extra Ends
// are dropped).
type Span struct {
	t     *Tracer
	id    int64
	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Child starts a sub-span. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(name, s)
}

// SetAttr attaches a key/value to the span's end event. Values must be
// JSON-encodable; keep them to counts and small strings. Nil-safe.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End closes the span, emitting its end event. Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.t.emit(traceEvent{Ev: "e", ID: s.id, Attrs: attrs})
}
