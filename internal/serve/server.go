package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paramra"
	"paramra/internal/cache"
	"paramra/internal/obs"
)

// Config tunes the server. The zero value is usable: every field has a
// production-shaped default (see Defaulted).
type Config struct {
	// MaxBody is the request-body limit in bytes (default 1 MiB).
	MaxBody int64
	// MaxInflight caps concurrently running verifications (default
	// 2×GOMAXPROCS). Excess requests queue until their context dies.
	MaxInflight int
	// DefaultBudget is the verification budget when the request names none
	// (default 30s). Exhaustion maps to 504.
	DefaultBudget time.Duration
	// MaxBudget caps client-requested budgets (default 2m). A request asking
	// for more is rejected with 400, not clamped.
	MaxBudget time.Duration
	// MaxStatesCap bounds concrete-instance exploration per request (default
	// 2,000,000). Requests asking for more are rejected; requests asking for
	// 0 ("unlimited") get this cap — a shared server never explores an
	// infinite concrete state space.
	MaxStatesCap int
	// MaxEnvThreads caps the instance size of /v1/instance and /v1/deadlocks
	// (default 16).
	MaxEnvThreads int
	// MaxConfirmEnv caps the confirm step's env-thread bound (default 8).
	MaxConfirmEnv int
	// Metrics receives the server and verifier metrics; nil creates a fresh
	// registry (exposed at /metrics either way).
	Metrics *obs.Registry
	// AccessLog receives one line per request; nil disables access logging.
	AccessLog io.Writer
	// SlowThreshold is the latency above which a request (with its full span
	// breakdown) is captured into the /debug/slow ring (default 500ms).
	SlowThreshold time.Duration
	// SlowRingSize is how many slow requests /debug/slow retains, newest
	// first (default 32).
	SlowRingSize int
	// TraceDir, when set, persists each request's raw JSONL trace as
	// <trace-id>.trace.jsonl in this directory — the input of
	// `rabench report`. Empty disables persistence.
	TraceDir string
	// CacheSize, when positive, enables the process-wide content-addressed
	// verdict cache for /v1/verify with this many in-memory entries.
	// Deliberately NOT defaulted on by Defaulted(): embedding callers and
	// tests opt in; cmd/raserved opts in via its -cache-size flag default.
	CacheSize int
	// CacheDir, when set together with CacheSize, adds the persistent
	// checksummed on-disk cache layer (survives restarts; corrupt entries
	// are detected and treated as misses).
	CacheDir string
	// CacheDiskMaxBytes caps the on-disk cache layer's total size; the
	// least-recently-used entries are evicted past it. 0 selects the
	// cache package's 256 MiB default; negative removes the bound.
	CacheDiskMaxBytes int64
}

// Defaulted fills unset fields with the documented defaults. The soak
// harness uses it to mirror a default-configured server when computing
// expected verdicts locally.
func (c Config) Defaulted() Config {
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 2 * time.Minute
	}
	if c.MaxBudget < c.DefaultBudget {
		c.MaxBudget = c.DefaultBudget
	}
	if c.MaxStatesCap <= 0 {
		c.MaxStatesCap = 2_000_000
	}
	if c.MaxEnvThreads <= 0 {
		c.MaxEnvThreads = 16
	}
	if c.MaxConfirmEnv <= 0 {
		c.MaxConfirmEnv = 8
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 500 * time.Millisecond
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 32
	}
	return c
}

// serverMetrics is the server's own instrument panel (the verifier adds its
// paramra_* families to the same registry).
type serverMetrics struct {
	requests     *obs.Counter
	resp2xx      *obs.Counter
	resp4xx      *obs.Counter
	resp5xx      *obs.Counter
	requestNS    *obs.Histogram
	inflight     *obs.Gauge
	goroutines   *obs.Gauge
	verdictSafe  *obs.Counter
	verdictUnsaf *obs.Counter
	timeouts     *obs.Counter
	panics       *obs.Counter
	overCapacity *obs.Counter
}

func newServerMetrics(m *obs.Registry) serverMetrics {
	return serverMetrics{
		requests:     m.Counter("raserved_requests_total", "HTTP requests received"),
		resp2xx:      m.Counter("raserved_responses_2xx_total", "responses with 2xx status"),
		resp4xx:      m.Counter("raserved_responses_4xx_total", "responses with 4xx status"),
		resp5xx:      m.Counter("raserved_responses_5xx_total", "responses with 5xx status"),
		requestNS:    m.Histogram("raserved_request_ns", "request wall time (ns)"),
		inflight:     m.Gauge("raserved_inflight", "verification requests currently running"),
		goroutines:   m.Gauge("raserved_goroutines", "goroutines at last status scrape"),
		verdictSafe:  m.Counter("raserved_verdict_safe_total", "SAFE verdicts served"),
		verdictUnsaf: m.Counter("raserved_verdict_unsafe_total", "UNSAFE verdicts served"),
		timeouts:     m.Counter("raserved_timeouts_total", "requests ended by budget exhaustion (408+504)"),
		panics:       m.Counter("raserved_panics_total", "handler panics recovered"),
		overCapacity: m.Counter("raserved_over_capacity_total", "requests rejected by the concurrency limiter"),
	}
}

// Server is the verification service. Create with New, expose with Handler
// (or run with Serve for lifecycle management), drain with BeginDrain.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	sem       chan struct{}
	m         serverMetrics
	accessLog logPrinter
	slow      *obs.Ring[SlowEntry]
	cache     *cache.Cache

	boot       uint32
	seq        atomic.Int64
	served     atomic.Int64
	inflight   atomic.Int64
	inflightWG sync.WaitGroup
	draining   atomic.Bool
	start      time.Time

	// verifyHook, when set, runs in handleVerify once the request's budget
	// has started and just before verification, with the verification
	// context. Tests use it to hold a request at that point instead of
	// relying on how long a verification takes.
	verifyHook func(ctx context.Context)
}

// logPrinter is the minimal printf sink the middleware needs (satisfied by
// *log.Logger); an interface keeps tests free to capture lines.
type logPrinter interface{ Printf(format string, v ...any) }

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.Defaulted()
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInflight),
		m:     newServerMetrics(cfg.Metrics),
		slow:  obs.NewRing[SlowEntry](cfg.SlowRingSize),
		boot:  uint32(time.Now().UnixNano()),
		start: time.Now(),
	}
	if l := newAccessLogger(cfg); l != nil {
		s.accessLog = l
	}
	if cfg.CacheSize > 0 {
		s.cache = cache.New(cache.Options{
			MaxEntries:   cfg.CacheSize,
			Dir:          cfg.CacheDir,
			DiskMaxBytes: cfg.CacheDiskMaxBytes,
			Metrics:      cfg.Metrics,
		})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.Handle("GET /metrics", s.metricsHandler())
	s.mux.Handle("GET /metrics.json", s.metricsHandler())
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("POST /v1/verify", s.limited(s.handleVerify))
	s.mux.HandleFunc("POST /v1/instance", s.limited(s.handleInstance))
	s.mux.HandleFunc("POST /v1/deadlocks", s.limited(s.handleDeadlocks))
	s.mux.HandleFunc("POST /v1/inventory", s.limited(s.handleInventory))
	s.mux.HandleFunc("/", s.handleFallback)
	return s
}

// Metrics returns the server's registry (the configured one, or the
// registry New created).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Handler returns the full middleware-wrapped handler:
// request ID → trace → access log + metrics → recover → routes.
// Recovery sits innermost so a panic's 500 envelope carries the request and
// trace IDs and still lands in the access log and latency histograms.
func (s *Server) Handler() http.Handler {
	return s.withRequestID(s.withTrace(s.withAccessLog(s.withRecover(s.mux))))
}

// addInflight adjusts and returns the in-flight verification count.
func (s *Server) addInflight(d int64) int64 { return s.inflight.Add(d) }

// BeginDrain flips the server into draining mode: /readyz turns 503 and new
// verification requests are refused, while in-flight work keeps running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve runs the server on ln until ctx is cancelled, then drains
// gracefully: readiness flips, new verification work is refused, and
// in-flight requests get up to grace to finish before connections are
// force-closed. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
		// The forced close cancels the remaining request contexts; wait for
		// the verification goroutines to observe it before reporting.
		s.inflightWG.Wait()
		return fmt.Errorf("serve: drain incomplete after %v: %w", grace, err)
	}
	s.inflightWG.Wait()
	return nil
}

// metricsHandler refreshes the goroutine gauge, then delegates to the
// registry's Prometheus/JSON exposition.
func (s *Server) metricsHandler() http.Handler {
	reg := s.cfg.Metrics.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.goroutines.Set(int64(runtime.NumGoroutine()))
		reg.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}

// Status is the /statusz payload.
type Status struct {
	APIVersion string          `json:"apiVersion"`
	Goroutines int             `json:"goroutines"`
	Inflight   int64           `json:"inflight"`
	Served     int64           `json:"served"`
	Draining   bool            `json:"draining"`
	UptimeMS   int64           `json:"uptimeMs"`
	Cache      *CacheStatusDTO `json:"cache,omitempty"`
}

// CacheStatusDTO is the verdict-cache section of /statusz (present only
// when Config.CacheSize enabled the cache).
type CacheStatusDTO struct {
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Shared      int64 `json:"shared"`
	Stores      int64 `json:"stores"`
	Evictions   int64 `json:"evictions"`
	DiskHits    int64 `json:"diskHits,omitempty"`
	DiskCorrupt int64 `json:"diskCorrupt,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	g := runtime.NumGoroutine()
	s.m.goroutines.Set(int64(g))
	st := Status{
		APIVersion: APIVersion,
		Goroutines: g,
		Inflight:   s.inflight.Load(),
		Served:     s.served.Load(),
		Draining:   s.draining.Load(),
		UptimeMS:   time.Since(s.start).Milliseconds(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &CacheStatusDTO{
			Entries:     cs.Entries,
			Hits:        cs.Hits,
			Misses:      cs.Misses,
			Shared:      cs.Shared,
			Stores:      cs.Stores,
			Evictions:   cs.Evictions,
			DiskHits:    cs.DiskHits,
			DiskCorrupt: cs.DiskCorrupt,
		}
	}
	writeJSON(w, st)
}

// handleFallback gives unknown paths (and wrong methods on known paths) a
// JSON 404/405 instead of the stdlib text default.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, http.StatusNotFound, CodeBadRequest,
		fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// decodeRequest reads a verification request: a JSON envelope when the
// Content-Type says so, else a raw .ra body with knobs as query parameters.
// envelope is filled with the defaults of the raw form first, so both paths
// produce one shape.
func decodeRequest(r *http.Request) (system string, ro RequestOptions, envThreads int, err error) {
	body, rerr := io.ReadAll(r.Body)
	if rerr != nil {
		var mbe *http.MaxBytesError
		if errors.As(rerr, &mbe) {
			return "", ro, 0, rerr
		}
		return "", ro, 0, fmt.Errorf("reading body: %w", rerr)
	}
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		var env struct {
			System     string         `json:"system"`
			EnvThreads int            `json:"envThreads"`
			Options    RequestOptions `json:"options"`
		}
		if jerr := json.Unmarshal(body, &env); jerr != nil {
			return "", ro, 0, fmt.Errorf("decoding JSON request: %w", jerr)
		}
		return env.System, env.Options, env.EnvThreads, nil
	}
	// Raw .ra body; knobs from the query string.
	q := r.URL.Query()
	geti := func(name string, dst *int) {
		if err != nil || q.Get(name) == "" {
			return
		}
		v, perr := strconv.Atoi(q.Get(name))
		if perr != nil {
			err = fmt.Errorf("query parameter %s: %v", name, perr)
			return
		}
		*dst = v
	}
	if v := q.Get("budgetMs"); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return "", ro, 0, fmt.Errorf("query parameter budgetMs: %v", perr)
		}
		ro.BudgetMS = ms
	}
	geti("maxStates", &ro.MaxStates)
	geti("maxMacroStates", &ro.MaxMacroStates)
	geti("maxSkeletons", &ro.MaxSkeletons)
	geti("unrollDis", &ro.UnrollDis)
	geti("goalVal", &ro.GoalVal)
	geti("confirmMaxEnv", &ro.ConfirmMaxEnv)
	geti("envThreads", &envThreads)
	if err != nil {
		return "", ro, 0, err
	}
	ro.Datalog = queryBool(q.Get("datalog"))
	ro.Confirm = queryBool(q.Get("confirm"))
	ro.GoalVar = q.Get("goalVar")
	if v := q.Get("prepass"); v != "" {
		b := queryBool(v)
		ro.Prepass = &b
	}
	return string(body), ro, envThreads, nil
}

// prepare runs the shared request pipeline: decode, parse, options, budget.
// On failure it writes the error response and returns ok=false.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request) (sys *paramra.System, ro RequestOptions, opts paramra.Options, vctx context.Context, cancel context.CancelFunc, src budgetSource, envThreads int, ok bool) {
	system, ro, envThreads, err := decodeRequest(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, r, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", s.cfg.MaxBody))
			return
		}
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(system) == "" {
		writeFieldError(w, r, &FieldError{Field: "system", Reason: "is required (a .ra system)"})
		return
	}
	sys, err = paramra.Parse(system)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeParseError, err.Error())
		return
	}
	opts, err = s.cfg.Options(ro)
	if err != nil {
		var fe *FieldError
		if errors.As(err, &fe) {
			writeFieldError(w, r, fe)
		} else {
			writeError(w, r, http.StatusBadRequest, CodeInvalidOptions, err.Error())
		}
		return
	}
	budget, src, err := s.cfg.budget(ro.BudgetMS)
	if err != nil {
		var fe *FieldError
		if errors.As(err, &fe) {
			writeFieldError(w, r, fe)
		} else {
			writeError(w, r, http.StatusBadRequest, CodeInvalidOptions, err.Error())
		}
		return
	}
	opts.Metrics = s.cfg.Metrics
	opts.Cache = s.cache // nil when caching is disabled; only Verify uses it
	if c := captureFrom(r.Context()); c != nil {
		opts.Tracer = c.Tracer
	}
	vctx, cancel = context.WithTimeout(r.Context(), budget)
	return sys, ro, opts, vctx, cancel, src, envThreads, true
}

// finishError maps a verification error to its status, counts it, and
// writes the envelope.
func (s *Server) finishError(w http.ResponseWriter, r *http.Request, err error, src budgetSource) {
	status, code := verifyStatus(err, src)
	if status == http.StatusRequestTimeout || status == http.StatusGatewayTimeout {
		s.m.timeouts.Inc()
	}
	writeError(w, r, status, code, err.Error())
}

// countVerdict feeds the verdict counters.
func (s *Server) countVerdict(unsafe bool) {
	if unsafe {
		s.m.verdictUnsaf.Inc()
	} else {
		s.m.verdictSafe.Inc()
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	sys, ro, opts, vctx, cancel, src, _, ok := s.prepare(w, r)
	if !ok {
		return
	}
	defer cancel()
	backend := "fixpoint"
	if ro.Datalog {
		backend = "datalog"
	}
	if s.verifyHook != nil {
		s.verifyHook(vctx)
	}
	vstart := time.Now()
	res, err := paramra.Verify(vctx, sys, opts)
	s.observeBackend(backend, time.Since(vstart), TraceIDFrom(r.Context()))
	if err != nil {
		s.finishError(w, r, err, src)
		return
	}
	s.countVerdict(res.Unsafe)
	resp := VerifyResponse{
		APIVersion: APIVersion,
		RequestID:  RequestIDFrom(r.Context()),
		TraceID:    TraceIDFrom(r.Context()),
		System:     sys.Name,
		Verdict:    Verdict(res),
		Result:     FromResult(res),
	}
	if ro.Confirm && res.Unsafe {
		maxEnv := ro.ConfirmMaxEnv
		if maxEnv == 0 {
			maxEnv = 4
		}
		n, witness, cerr := paramra.ConfirmViolation(vctx, sys, res, maxEnv, opts)
		switch {
		case cerr == nil:
			resp.Confirm = &ConfirmDTO{EnvThreads: n, Witness: witness}
		default:
			var ce *paramra.ConfirmError
			if errors.As(cerr, &ce) && ce.Err == nil {
				// Bounds exhausted without a concrete witness: the verdict
				// stands (Theorem 3.4 — the caps were too small), so this is
				// still a 200 with the failure attached.
				dto := FromConfirmError(ce)
				resp.Confirm = &ConfirmDTO{Error: &dto}
			} else {
				s.finishError(w, r, cerr, src)
				return
			}
		}
	}
	resp.Trace = s.traceDTO(r)
	writeJSON(w, resp)
}

func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	sys, _, opts, vctx, cancel, src, envThreads, ok := s.prepare(w, r)
	if !ok {
		return
	}
	defer cancel()
	if !s.checkEnvThreads(w, r, envThreads) {
		return
	}
	vstart := time.Now()
	res, err := paramra.VerifyInstance(vctx, sys, envThreads, opts)
	s.observeBackend("concrete", time.Since(vstart), TraceIDFrom(r.Context()))
	if err != nil {
		s.finishError(w, r, err, src)
		return
	}
	s.countVerdict(res.Unsafe)
	writeJSON(w, InstanceResponse{
		APIVersion: APIVersion,
		RequestID:  RequestIDFrom(r.Context()),
		TraceID:    TraceIDFrom(r.Context()),
		System:     sys.Name,
		EnvThreads: envThreads,
		Verdict:    InstanceVerdict(res),
		Result:     FromInstanceResult(res),
		Trace:      s.traceDTO(r),
	})
}

func (s *Server) handleDeadlocks(w http.ResponseWriter, r *http.Request) {
	sys, _, opts, vctx, cancel, src, envThreads, ok := s.prepare(w, r)
	if !ok {
		return
	}
	defer cancel()
	if !s.checkEnvThreads(w, r, envThreads) {
		return
	}
	vstart := time.Now()
	res, err := paramra.FindDeadlocks(vctx, sys, envThreads, opts)
	s.observeBackend("concrete", time.Since(vstart), TraceIDFrom(r.Context()))
	if err != nil {
		s.finishError(w, r, err, src)
		return
	}
	writeJSON(w, DeadlockResponse{
		APIVersion: APIVersion,
		RequestID:  RequestIDFrom(r.Context()),
		TraceID:    TraceIDFrom(r.Context()),
		System:     sys.Name,
		EnvThreads: envThreads,
		Result:     FromDeadlockResult(res),
		Trace:      s.traceDTO(r),
	})
}

func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	sys, _, opts, vctx, cancel, src, _, ok := s.prepare(w, r)
	if !ok {
		return
	}
	defer cancel()
	vstart := time.Now()
	inv, err := paramra.Inventory(vctx, sys, opts)
	s.observeBackend("fixpoint", time.Since(vstart), TraceIDFrom(r.Context()))
	if err != nil {
		s.finishError(w, r, err, src)
		return
	}
	writeJSON(w, InventoryResponse{
		APIVersion: APIVersion,
		RequestID:  RequestIDFrom(r.Context()),
		TraceID:    TraceIDFrom(r.Context()),
		System:     sys.Name,
		Inventory:  inv,
		Trace:      s.traceDTO(r),
	})
}

// checkEnvThreads enforces the instance-size bounds of the concrete
// endpoints.
func (s *Server) checkEnvThreads(w http.ResponseWriter, r *http.Request, n int) bool {
	if n < 0 {
		writeFieldError(w, r, &FieldError{
			Field:  "envThreads",
			Reason: fmt.Sprintf("= %d: must be ≥ 0", n),
		})
		return false
	}
	if n > s.cfg.MaxEnvThreads {
		writeFieldError(w, r, &FieldError{
			Field:  "envThreads",
			Reason: fmt.Sprintf("= %d: exceeds the server cap %d", n, s.cfg.MaxEnvThreads),
		})
		return false
	}
	return true
}
