// Command raserved is the verification service: a long-running HTTP/JSON
// server exposing the paramra entry points over the typed wire API of
// internal/serve.
//
// Usage:
//
//	raserved [flags]
//
// The server prints "raserved: listening on ADDR" once bound (use -addr
// 127.0.0.1:0 to pick a free port), serves until SIGINT/SIGTERM, then
// drains gracefully: readiness flips to 503, new verification work is
// refused, and in-flight requests get -grace to finish. Exit code 0 means a
// clean drain.
//
// Every request is traced: X-Trace-Id propagates (or is generated) into the
// response header, envelopes, access log and all verification spans;
// requests slower than -slow-threshold land in /debug/slow with per-phase
// span breakdowns; -trace-dir persists raw JSONL traces for `rabench
// report`.
//
// Endpoints, budgets and error mapping are documented in internal/serve.
// Metrics are served on the main listener at /metrics (Prometheus text),
// /metrics.json and /debug/vars; -pprof-addr starts a separate
// net/http/pprof listener so profiling traffic never competes with
// verification traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paramra/internal/obs"
	"paramra/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address for the service")
		grace         = flag.Duration("grace", 30*time.Second, "drain deadline for in-flight requests on shutdown")
		maxBody       = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		maxInflight   = flag.Int("max-inflight", 0, "concurrent verification limit (0 = 2×GOMAXPROCS)")
		defaultBudget = flag.Duration("default-budget", 30*time.Second, "verification budget when the request names none (exhaustion → 504)")
		maxBudget     = flag.Duration("max-budget", 2*time.Minute, "cap on client-requested budgets (above → 400)")
		maxStates     = flag.Int("max-states", 2_000_000, "cap on concrete-instance exploration per request")
		maxEnv        = flag.Int("max-env", 16, "cap on env threads for /v1/instance and /v1/deadlocks")
		workers       = flag.Int("j", 0, "default worker goroutines per verification (0 = GOMAXPROCS; the prepass replay always runs on one)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
		metricsOut    = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit")
		quiet         = flag.Bool("quiet", false, "disable the access log")
		slowThreshold = flag.Duration("slow-threshold", 0, "latency above which a request is captured into /debug/slow (0 = 500ms default)")
		slowRing      = flag.Int("slow-ring", 0, "how many slow requests /debug/slow retains (0 = 32 default)")
		traceDir      = flag.String("trace-dir", "", "persist each request's JSONL trace into this directory (input of `rabench report`)")
		cacheSize     = flag.Int("cache-size", 4096, "in-memory verdict-cache entries, keyed on the canonical system form (0 disables caching)")
		cacheDir      = flag.String("cache-dir", "", "persist cached verdicts (checksummed JSON, survives restarts) in this directory; requires -cache-size > 0")
		cacheDiskMax  = flag.Int64("cache-disk-max-bytes", 0, "total size cap of the -cache-dir layer; LRU entries are evicted past it (0 = 256 MiB default, negative = unbounded)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: raserved [flags]")
		flag.PrintDefaults()
		return 2
	}

	reg := obs.NewRegistry()
	cfg := serve.Config{
		MaxBody:           *maxBody,
		MaxInflight:       *maxInflight,
		DefaultBudget:     *defaultBudget,
		MaxBudget:         *maxBudget,
		MaxStatesCap:      *maxStates,
		MaxEnvThreads:     *maxEnv,
		Parallelism:       *workers,
		Metrics:           reg,
		SlowThreshold:     *slowThreshold,
		SlowRingSize:      *slowRing,
		TraceDir:          *traceDir,
		CacheSize:         *cacheSize,
		CacheDir:          *cacheDir,
		CacheDiskMaxBytes: *cacheDiskMax,
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "raserved:", err)
			return 2
		}
	}
	if *cacheDir != "" {
		if *cacheSize <= 0 {
			fmt.Fprintln(os.Stderr, "raserved: -cache-dir requires -cache-size > 0")
			return 2
		}
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "raserved:", err)
			return 2
		}
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raserved:", err)
		return 2
	}
	// The bound address goes to stdout so scripts (and cmd/soak wrappers)
	// can target an ephemeral port.
	fmt.Printf("raserved: listening on %s\n", ln.Addr())

	if *pprofAddr != "" {
		stop, bound, perr := obs.ServePprof(*pprofAddr)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "raserved:", perr)
			return 2
		}
		defer stop()
		fmt.Printf("raserved: pprof on %s\n", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = srv.Serve(ctx, ln, *grace)

	if *metricsOut != "" {
		if f, ferr := os.Create(*metricsOut); ferr != nil {
			fmt.Fprintln(os.Stderr, "raserved:", ferr)
		} else {
			if werr := reg.WriteJSON(f); werr != nil {
				fmt.Fprintln(os.Stderr, "raserved:", werr)
			}
			_ = f.Close()
		}
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "raserved:", err)
		return 1
	}
	fmt.Println("raserved: drained cleanly")
	return 0
}
