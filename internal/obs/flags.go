package obs

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"
)

// Flags is the shared observability (and run-limit) flag set of the cmd/
// tools. Every tool registers the observability group via RegisterFlags;
// the tools that run a search additionally register the run group via
// RegisterRunFlags. Using one helper keeps spelling, defaults, and help
// text identical across binaries.
type Flags struct {
	// Run group (-j, -timeout).
	Workers int
	Timeout time.Duration

	// Observability group.
	TraceOut    string
	MetricsAddr string
	MetricsOut  string
	PprofAddr   string
	CPUProfile  string
	MemProfile  string
}

// RegisterFlags registers the observability flag group on fs:
// -trace-out, -metrics-addr, -metrics-out, -pprof-addr, -cpuprofile,
// -memprofile.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a JSONL phase-span trace to this file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars on this address (e.g. :9090)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// RegisterRunFlags registers the run flag group on fs: -j and -timeout,
// spelled and documented identically across the tools.
func (f *Flags) RegisterRunFlags(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "j", 0, "worker goroutines (0 = GOMAXPROCS); verdicts are identical for every value")
	fs.DurationVar(&f.Timeout, "timeout", 0, "overall time limit (0 = none), e.g. 30s")
}

// Context returns the tool's run context: SIGINT cancels it, and -timeout
// (when set) bounds it. The returned stop function releases both.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if f.Timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, f.Timeout)
		return tctx, func() { cancel(); stop() }
	}
	return ctx, stop
}

// Session holds the live observability state opened from the flags. The
// zero fields are valid: with no flags set, Tracer and Metrics are nil and
// every instrumentation call in the pipeline is a pointer-check no-op.
type Session struct {
	// Tracer is non-nil iff -trace-out was given.
	Tracer *Tracer
	// Metrics is non-nil iff any of -metrics-addr, -metrics-out was given.
	Metrics *Registry

	traceFile   *os.File
	traceBuf    *bufio.Writer
	metricsOut  string
	memProfile  string
	stopCPU     func() error
	stopServers []func()
}

// Open starts everything the flags ask for: the trace file, the metrics
// registry and its listener, the pprof listener, and the CPU profile. Call
// Close when the tool is done. An error leaves nothing running.
func (f *Flags) Open() (*Session, error) {
	s := &Session{}
	fail := func(err error) (*Session, error) {
		s.Close()
		return nil, err
	}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return fail(fmt.Errorf("obs: trace-out: %w", err))
		}
		s.traceFile = file
		s.traceBuf = bufio.NewWriter(file)
		s.Tracer = NewTracer(s.traceBuf)
	}
	if f.MetricsAddr != "" || f.MetricsOut != "" {
		s.Metrics = NewRegistry()
		s.metricsOut = f.MetricsOut
	}
	if f.MetricsAddr != "" {
		stop, _, err := ServeMetrics(f.MetricsAddr, s.Metrics)
		if err != nil {
			return fail(err)
		}
		s.stopServers = append(s.stopServers, stop)
	}
	if f.PprofAddr != "" {
		stop, _, err := ServePprof(f.PprofAddr)
		if err != nil {
			return fail(err)
		}
		s.stopServers = append(s.stopServers, stop)
	}
	if f.CPUProfile != "" {
		stop, err := StartCPUProfile(f.CPUProfile)
		if err != nil {
			return fail(err)
		}
		s.stopCPU = stop
	}
	s.memProfile = f.MemProfile
	return s, nil
}

// Close flushes the trace, writes the metrics snapshot and heap profile,
// stops the CPU profile, and shuts the listeners down. It returns the first
// error encountered.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.Tracer != nil {
		keep(s.Tracer.Flush())
		keep(s.traceBuf.Flush())
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
	}
	if s.metricsOut != "" && s.Metrics != nil {
		if f, err := os.Create(s.metricsOut); err != nil {
			keep(err)
		} else {
			keep(s.Metrics.WriteJSON(f))
			keep(f.Close())
		}
	}
	if s.stopCPU != nil {
		keep(s.stopCPU())
	}
	if s.memProfile != "" {
		keep(WriteMemProfile(s.memProfile))
	}
	for _, stop := range s.stopServers {
		stop()
	}
	return first
}
