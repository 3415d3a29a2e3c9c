package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"paramra/internal/obs"
)

// TraceIDFrom returns the trace ID the middleware assigned — the client's
// X-Trace-Id when present, else a generated one. Empty outside a
// server-handled request.
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey).(string)
	return id
}

// captureFrom returns the request's span capture (nil outside a
// server-handled request).
func captureFrom(ctx context.Context) *obs.Capture {
	c, _ := ctx.Value(captureKey).(*obs.Capture)
	return c
}

// withTrace makes every request a traced operation: it resolves the trace ID
// (X-Trace-Id header, length-capped, else "t<boot-hex>-<seq>"), echoes it in
// the response header, and installs a per-request obs.Capture on the
// context; prepare hands its tracer to the library, so every span the
// verifier layers open downstream lands in this request's private buffer,
// stamped with this request's trace ID.
// After the handler returns it feeds the per-endpoint latency histograms
// (with the trace ID as exemplar), the slow-request ring, and the optional
// trace directory.
func (s *Server) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Trace-Id")
		if id == "" || len(id) > 128 {
			id = fmt.Sprintf("t%08x-%06d", s.boot, s.seq.Add(1))
		}
		w.Header().Set("X-Trace-Id", id)
		cap := obs.NewCapture(id)
		ctx := context.WithValue(r.Context(), traceIDKey, id)
		ctx = context.WithValue(ctx, captureKey, cap)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		s.observeEndpoint(r.URL.Path, d, id)
		if d >= s.cfg.SlowThreshold {
			s.recordSlow(r, sw.status, d, id, cap)
		}
		if s.cfg.TraceDir != "" {
			s.writeTraceFile(id, cap)
		}
	})
}

// endpointSuffix names the per-endpoint latency histograms. Only fixed
// routes get one: deriving metric names from arbitrary request paths would
// let clients mint unbounded families.
var endpointSuffix = map[string]string{
	"/v1/verify":    "verify",
	"/v1/instance":  "instance",
	"/v1/deadlocks": "deadlocks",
	"/v1/inventory": "inventory",
}

// observeEndpoint feeds the endpoint's SLO histogram, attaching the trace ID
// as the bucket exemplar so a scraper can jump from a bad bucket to the
// trace that landed in it.
func (s *Server) observeEndpoint(path string, d time.Duration, traceID string) {
	suffix, ok := endpointSuffix[path]
	if !ok {
		return
	}
	s.cfg.Metrics.Histogram("raserved_endpoint_"+suffix+"_ns",
		"request wall time for "+path+" (ns)").ObserveExemplar(int64(d), traceID)
}

// observeBackend feeds the per-backend verification histogram (fixpoint,
// datalog, concrete) with the trace ID as exemplar.
func (s *Server) observeBackend(backend string, d time.Duration, traceID string) {
	s.cfg.Metrics.Histogram("raserved_backend_"+backend+"_ns",
		"verification wall time for the "+backend+" backend (ns)").ObserveExemplar(int64(d), traceID)
}

// SlowEntry is one captured slow request: identity, outcome, and the full
// span tree recorded while it ran.
type SlowEntry struct {
	TraceID   string `json:"traceId"`
	RequestID string `json:"requestId,omitempty"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	DurNs     int64  `json:"durNs"`
	// Spans is the per-phase breakdown (see obs.TreeNode); TraceError
	// replaces it when the capture could not be reconstructed.
	Spans      []*obs.TreeNode `json:"spans,omitempty"`
	TraceError string          `json:"traceError,omitempty"`
}

// recordSlow snapshots a request that blew the latency threshold into the
// slow ring.
func (s *Server) recordSlow(r *http.Request, status int, d time.Duration, id string, cap *obs.Capture) {
	e := SlowEntry{
		TraceID:   id,
		RequestID: RequestIDFrom(r.Context()),
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    status,
		DurNs:     int64(d),
	}
	if tree, err := cap.Tree(); err == nil {
		e.Spans = tree
	} else {
		e.TraceError = err.Error()
	}
	s.slow.Add(e)
}

// SlowResponse is the /debug/slow envelope: the most recent slow requests,
// newest first.
type SlowResponse struct {
	APIVersion  string      `json:"apiVersion"`
	RequestID   string      `json:"requestId,omitempty"`
	TraceID     string      `json:"traceId,omitempty"`
	ThresholdMS int64       `json:"thresholdMs"`
	Total       int64       `json:"total"`
	Requests    []SlowEntry `json:"requests"`
}

// handleSlow serves the slow-request ring.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	if entries == nil {
		entries = []SlowEntry{}
	}
	writeJSON(w, SlowResponse{
		APIVersion:  APIVersion,
		RequestID:   RequestIDFrom(r.Context()),
		TraceID:     TraceIDFrom(r.Context()),
		ThresholdMS: s.cfg.SlowThreshold.Milliseconds(),
		Total:       s.slow.Total(),
		Requests:    entries,
	})
}

// traceDTO builds the opt-in per-response span tree: non-nil only when the
// client sent "X-Trace: 1" (or true/yes/on). It runs after the handler's
// verification work finished, so every library span is already ended.
func (s *Server) traceDTO(r *http.Request) *TraceDTO {
	if !queryBool(r.Header.Get("X-Trace")) {
		return nil
	}
	c := captureFrom(r.Context())
	if c == nil {
		return nil
	}
	tree, err := c.Tree()
	if err != nil {
		return &TraceDTO{Error: err.Error()}
	}
	return &TraceDTO{Spans: tree}
}

// writeTraceFile persists the request's raw JSONL trace under TraceDir as
// <trace-id>.trace.jsonl (the input of `rabench report`). Requests that
// opened no spans (health checks, scrapes) are skipped.
func (s *Server) writeTraceFile(id string, cap *obs.Capture) {
	data, err := cap.Bytes()
	if err == nil && len(data) == 0 {
		return
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(s.cfg.TraceDir, sanitizeTraceID(id)+".trace.jsonl"), data, 0o644)
	}
	if err != nil && s.accessLog != nil {
		s.accessLog.Printf("trace %s: writing trace file: %v", id, err)
	}
}

// sanitizeTraceID maps a client-supplied trace ID onto a safe file stem:
// anything outside [A-Za-z0-9._-] becomes '_', and names that would be dot
// paths get a prefix.
func sanitizeTraceID(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	out := b.String()
	if out == "" || strings.Trim(out, ".") == "" {
		return "trace"
	}
	return out
}
