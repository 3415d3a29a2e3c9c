package obs

import (
	"bytes"
	"sync"
)

// lockedBuffer is an io.Writer safe to read back after concurrent writes:
// the tracer writes each event into it under this mutex, and Capture.Spans
// snapshots it under the same mutex.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.b.Bytes()...)
}

// Capture is a self-contained in-memory trace for one logical operation —
// one HTTP request, one fuzz seed, one experiment. Each capture owns a
// private buffer, so any number of captures can record concurrently without
// ever interleaving JSONL events from different operations in one stream
// (the failure mode of sharing a single file-backed tracer across
// requests). When the operation is done, Spans reconstructs the span tree.
type Capture struct {
	// Tracer records this capture's spans; pass it (or a root span started
	// on it) down the pipeline, e.g. as paramra's Options.Tracer.
	Tracer *Tracer

	buf *lockedBuffer
}

// NewCapture starts an in-memory capture whose spans are stamped with the
// given trace ID (empty = no stamping).
func NewCapture(traceID string) *Capture {
	buf := &lockedBuffer{}
	t := NewTracer(buf)
	t.SetTraceID(traceID)
	return &Capture{Tracer: t, buf: buf}
}

// Bytes returns the raw JSONL trace recorded so far, or the first error the
// tracer hit.
func (c *Capture) Bytes() ([]byte, error) {
	if err := c.Tracer.Flush(); err != nil {
		return nil, err
	}
	return c.buf.snapshot(), nil
}

// Spans parses the captured trace, enforcing the schema (every span
// ended, timestamps monotone — see ParseTrace). Call it after the traced
// operation has finished.
func (c *Capture) Spans() ([]SpanRecord, error) {
	data, err := c.Bytes()
	if err != nil {
		return nil, err
	}
	return ParseTrace(bytes.NewReader(data))
}

// TreeNode is one span of a reconstructed span tree, the JSON shape served
// in trace-enabled responses and /debug/slow entries. Durations are
// nanoseconds relative to the capture's start.
type TreeNode struct {
	Name     string         `json:"name"`
	StartNs  int64          `json:"startNs"`
	DurNs    int64          `json:"durNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*TreeNode    `json:"children,omitempty"`
}

// BuildTree nests parsed spans into parent→child trees, preserving start
// order among siblings. Roots (parent 0, or an unknown parent) come back in
// start order.
func BuildTree(spans []SpanRecord) []*TreeNode {
	nodes := make(map[int64]*TreeNode, len(spans))
	var roots []*TreeNode
	for _, s := range spans {
		nodes[s.ID] = &TreeNode{Name: s.Name, StartNs: s.Start, DurNs: s.Dur(), Attrs: s.Attrs}
	}
	for _, s := range spans { // spans are in start (= ID) order from ParseTrace
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Tree parses and nests the capture into span trees.
func (c *Capture) Tree() ([]*TreeNode, error) {
	spans, err := c.Spans()
	if err != nil {
		return nil, err
	}
	return BuildTree(spans), nil
}

// WalkTree calls f for every node of the trees, parents before children.
func WalkTree(roots []*TreeNode, f func(*TreeNode)) {
	for _, n := range roots {
		f(n)
		WalkTree(n.Children, f)
	}
}
