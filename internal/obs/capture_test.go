package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCaptureTraceIDOnEverySpan pins that a capture stamps its trace ID on
// every span (root and nested) and that ParseTrace carries it through.
func TestCaptureTraceIDOnEverySpan(t *testing.T) {
	c := NewCapture("trace-42")
	root := c.Tracer.Start("request", nil)
	child := root.Child("verify")
	child.Child("fixpoint").End()
	child.End()
	root.End()
	spans, err := c.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.TraceID != "trace-42" {
			t.Errorf("span %q trace ID = %q, want trace-42", s.Name, s.TraceID)
		}
	}
}

// TestConcurrentCapturesNeverInterleave is the multi-root race test: 50
// concurrent request-scoped captures record overlapping span trees, and
// every single capture must still validate in isolation — per-request
// tracers never interleave JSONL events from different requests in one
// stream.
func TestConcurrentCapturesNeverInterleave(t *testing.T) {
	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("req-%02d", i)
			c := NewCapture(id)
			root := c.Tracer.Start("request", nil)
			for j := 0; j < 20; j++ {
				s := root.Child(fmt.Sprintf("phase-%d", j%3))
				s.SetAttr("j", j)
				s.Child("inner").End()
				s.End()
			}
			root.End()
			data, err := c.Bytes()
			if err != nil {
				errs[i] = err
				return
			}
			if err := ValidateTrace(bytes.NewReader(data)); err != nil {
				errs[i] = fmt.Errorf("capture %s: %v", id, err)
				return
			}
			spans, _ := ParseTrace(bytes.NewReader(data))
			for _, s := range spans {
				if s.TraceID != id {
					errs[i] = fmt.Errorf("capture %s: span %q has trace ID %q", id, s.Name, s.TraceID)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestBuildTreeNesting pins the tree builder: children nest under parents,
// siblings keep start order, and multiple roots are preserved.
func TestBuildTreeNesting(t *testing.T) {
	c := NewCapture("")
	r1 := c.Tracer.Start("verify", nil)
	a := r1.Child("prepass")
	a.End()
	b := r1.Child("fixpoint")
	b.Child("layer").End()
	b.End()
	r1.End()
	c.Tracer.Start("confirm", nil).End()

	roots, err := c.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0].Name != "verify" || roots[1].Name != "confirm" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "prepass" || kids[1].Name != "fixpoint" {
		t.Fatalf("children = %+v", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "layer" {
		t.Fatalf("grandchildren = %+v", kids[1].Children)
	}
	total := 0
	WalkTree(roots, func(*TreeNode) { total++ })
	if total != 5 {
		t.Errorf("WalkTree visited %d nodes, want 5", total)
	}
}

// TestRingEvictsOldest pins capacity, eviction order, and the newest-first
// snapshot.
func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Add(i)
	}
	got := r.Snapshot()
	want := []int{5, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	var nilRing *Ring[int]
	nilRing.Add(1) // nil-safe
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 {
		t.Error("nil ring is not a no-op")
	}
}

// TestRingRace hammers one ring from many goroutines under -race.
func TestRingRace(t *testing.T) {
	r := NewRing[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(w*1000 + i)
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 8 {
		t.Errorf("snapshot length = %d, want 8", got)
	}
}

// TestHistogramExemplar pins exemplar retention and its Prometheus
// rendering (OpenMetrics "# {trace_id=...}" suffix on the bucket line).
func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req_ns", "request latency")
	h.ObserveExemplar(100, "t-1")
	h.ObserveExemplar(120, "t-2") // same bucket: last writer wins
	h.Observe(1 << 20)            // no exemplar for this bucket
	if ex := h.ExemplarOf(100); ex == nil || ex.TraceID != "t-2" || ex.Value != 120 {
		t.Fatalf("ExemplarOf(100) = %+v", ex)
	}
	if ex := h.ExemplarOf(1 << 20); ex != nil {
		t.Fatalf("ExemplarOf(1<<20) = %+v, want nil", ex)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="t-2"} 120`) {
		t.Errorf("prometheus output missing exemplar:\n%s", out)
	}
	if strings.Contains(out, "t-1") {
		t.Errorf("overwritten exemplar leaked into output:\n%s", out)
	}
	// Exemplar-free histograms keep the plain shape.
	if strings.Contains(out, `le="2097152"} 1 #`) {
		t.Errorf("unexpected exemplar on plain bucket:\n%s", out)
	}
}
