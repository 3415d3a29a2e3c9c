package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFlagsRegisterSpelling(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := RegisterFlags(fs)
	f.RegisterRunFlags(fs)
	for _, name := range []string{
		"timeout", "trace-out", "metrics-addr", "metrics-out",
		"pprof-addr", "cpuprofile", "memprofile",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-timeout", "2s", "-trace-out", "x.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if f.Timeout != 2*time.Second || f.TraceOut != "x.jsonl" {
		t.Errorf("parsed flags wrong: %+v", f)
	}
}

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		TraceOut:   filepath.Join(dir, "t.jsonl"),
		MetricsOut: filepath.Join(dir, "m.json"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	s, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer == nil || s.Metrics == nil {
		t.Fatal("session missing tracer or metrics")
	}
	sp := s.Tracer.Start("run", nil)
	s.Metrics.Counter("c_total", "").Add(3)
	sp.End()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tf, err := os.Open(f.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if err := ValidateTrace(tf); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}
	for _, p := range []string{f.MetricsOut, f.MemProfile} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", p, err)
		}
	}
}

func TestSessionZeroFlags(t *testing.T) {
	s, err := (&Flags{}).Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != nil || s.Metrics != nil {
		t.Error("zero flags should leave observability disabled")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
