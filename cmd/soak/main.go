// Command soak is the load generator and correctness harness for raserved.
// It replays a corpus of .ra systems against a live server for a
// configurable duration at a configurable concurrency and asserts, at the
// end of the run:
//
//   - zero unexpected non-2xx responses (intentional error probes — bad
//     syntax, bad knobs, tiny budgets, oversized bodies — are asserted to
//     produce their exact documented status and code, and counted apart;
//     504 server_budget_exceeded on the uncached heavyweight endpoints is
//     counted as saturation, not failure — see saturation504);
//   - every verdict byte-identical to a local library run with the same
//     options (the deterministic kernel of the response, which is also what
//     raverify prints — the verdict strings share one implementation);
//   - zero goroutine leaks on the server: the /statusz goroutine count
//     after the storm settles must not exceed the pre-storm count plus a
//     small slack;
//   - /metrics parses as valid Prometheus text exposition, and the
//     per-endpoint latency histograms carry soak trace IDs as OpenMetrics
//     exemplars (-check-metrics);
//   - every request carries a unique X-Trace-Id and the server echoes it
//     into the response header and envelope; /debug/slow parses, and with
//     -expect-slow (a server started with a floor slow threshold) contains
//     soak-traced entries with per-phase span breakdowns;
//   - with -expect-cache (a server running its default verdict cache), the
//     storm interleaves renamed-duplicate traffic whose verdicts must be
//     byte-identical to the originals', /metrics must show
//     paramra_cache_hits_total > 0, and an "X-Trace: 1" request must carry
//     a cache-lookup span in its trace tree.
//
// The local expectations are computed through a local verdict cache when
// -server-cache is on (the default, matching a default-configured raserved):
// cache misses verify the canonical form of the system, so witnesses and
// classes are spelled in canonical names on both sides of the comparison.
//
// Usage:
//
//	soak -addr http://127.0.0.1:8080 [-corpus testdata/systems]
//	     [-duration 60s] [-concurrency 8] [-check-metrics]
//
// Exit code 0 means every assertion held; 1 means at least one failed; 2 is
// a usage or setup error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paramra"
	"paramra/internal/cache"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/serve"
	"paramra/internal/tqbf"
)

// entry is one corpus system with its locally precomputed expectations.
type entry struct {
	name   string
	src    string
	renSrc string // seeded renamed clone (set when the server caches)

	core    []byte // deterministic verify kernel (fixpoint/prepass defaults)
	unsafe  bool
	wall    time.Duration
	light   bool   // cheap enough for the secondary endpoints
	dlCore  []byte // datalog-backend kernel (light entries only)
	deadRes *paramra.DeadlockResult
	invRes  map[string][]int
}

// counters aggregates the run.
type counters struct {
	requests  atomic.Int64
	probes    atomic.Int64
	mismatch  atomic.Int64
	badStatus atomic.Int64
	transport atomic.Int64
	saturated atomic.Int64
}

// saturation504 reports whether a response is the server's documented
// overload answer — 504 with code server_budget_exceeded — on one of the
// uncached heavyweight endpoints. With the verdict cache answering verify
// traffic in microseconds, the storm drives those endpoints much harder
// than an uncached server ever saw; exhausting the server-imposed budget
// under that load is correct behavior, counted apart, not a failure.
func saturation504(status int, data []byte) bool {
	if status != http.StatusGatewayTimeout {
		return false
	}
	var er serve.ErrorResponse
	return json.Unmarshal(data, &er) == nil && er.Error.Code == serve.CodeServerBudget
}

var fail int32 // sticky failure flag

// traceSeq mints the unique per-request trace IDs every soak request sends.
var traceSeq atomic.Int64

func nextTraceID() string { return fmt.Sprintf("soak-%06d", traceSeq.Add(1)) }

func failf(format string, args ...any) {
	atomic.StoreInt32(&fail, 1)
	fmt.Fprintf(os.Stderr, "soak: FAIL: "+format+"\n", args...)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "", "base URL of a running raserved, e.g. http://127.0.0.1:8080 (required)")
		corpusDir    = flag.String("corpus", filepath.Join("testdata", "systems"), "directory of .ra systems to replay")
		duration     = flag.Duration("duration", 60*time.Second, "how long to keep the request storm running")
		concurrency  = flag.Int("concurrency", 8, "concurrent client workers")
		budgetMS     = flag.Int64("budget-ms", 0, "per-request budget sent to the server (0 = server default)")
		checkMetrics = flag.Bool("check-metrics", true, "fetch /metrics at the end and validate the Prometheus text format")
		probes       = flag.Bool("probes", true, "interleave intentional-error probes (400/408/413) and assert their exact statuses")
		leakSlack    = flag.Int("leak-slack", 16, "allowed goroutine-count growth on the server across the run")
		expectSlow   = flag.Bool("expect-slow", false, "assert /debug/slow captured soak requests (use against a server with a floor -slow-threshold)")
		serverCache  = flag.Bool("server-cache", true, "the server runs its default verdict cache; compute local expectations through a local cache so canonical-form verdicts match")
		expectCache  = flag.Bool("expect-cache", false, "interleave renamed-duplicate traffic and assert cache hits in /metrics plus cache-lookup trace spans (requires -server-cache)")
		wait         = flag.Duration("wait", 10*time.Second, "how long to wait for the server to become healthy")
	)
	flag.Parse()
	if *addr == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: soak -addr http://HOST:PORT [flags]")
		flag.PrintDefaults()
		return 2
	}
	if *expectCache && !*serverCache {
		fmt.Fprintln(os.Stderr, "soak: -expect-cache requires -server-cache")
		return 2
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 5 * time.Minute}

	if err := waitHealthy(client, base, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}

	entries, err := loadCorpus(*corpusDir, *budgetMS, *serverCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}
	fmt.Printf("soak: corpus %d entries, duration %s, concurrency %d\n",
		len(entries), *duration, *concurrency)

	// Warm up: one verify per entry, so steady-state goroutine pools
	// (scheduler, http transports, verifier workers) exist before the leak
	// baseline is taken.
	var c counters
	var latMu sync.Mutex
	var latencies []time.Duration
	for _, e := range entries {
		doVerify(client, base, e, e.src, *budgetMS, true, &c, nil, nil)
	}
	g0, err := goroutines(client, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}

	stop := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				e := entries[rng.Intn(len(entries))]
				roll := rng.Intn(100)
				switch {
				case *probes && roll < 6:
					c.probes.Add(1)
					runProbe(client, base, entries, rng)
				case roll < 70:
					// With -expect-cache, half of this bucket resubmits the
					// seeded renamed clone: same canonical form, so the
					// server must answer with the original's exact verdict.
					src := e.src
					if *expectCache && roll%2 == 0 {
						src = e.renSrc
					}
					doVerify(client, base, e, src, *budgetMS, true, &c, &latMu, &latencies)
				case roll < 80:
					doVerify(client, base, e, e.src, *budgetMS, false, &c, &latMu, &latencies)
				case roll < 85 && e.light:
					doDatalog(client, base, e, *budgetMS, &c)
				case roll < 90 && e.light:
					doInstance(client, base, e, *budgetMS, &c)
				case roll < 95 && e.light:
					doDeadlocks(client, base, e, *budgetMS, &c)
				case e.light:
					doInventory(client, base, e, *budgetMS, &c)
				default:
					doVerify(client, base, e, e.src, *budgetMS, true, &c, &latMu, &latencies)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	// Let the server's per-request goroutines (verifier pools, progress
	// tickers) finish parking before judging leaks.
	time.Sleep(1 * time.Second)
	g1, err := goroutines(client, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}
	if g1 > g0+*leakSlack {
		failf("goroutine leak: %d before storm, %d after (slack %d)", g0, g1, *leakSlack)
	}

	if *checkMetrics {
		if err := validateMetrics(client, base); err != nil {
			failf("metrics validation: %v", err)
		}
	}
	if err := validateSlow(client, base, *expectSlow); err != nil {
		failf("slow-ring validation: %v", err)
	}
	if *expectCache {
		if err := validateCacheMetrics(client, base); err != nil {
			failf("cache-metrics validation: %v", err)
		}
		if err := validateCacheTrace(client, base, entries[0], *budgetMS); err != nil {
			failf("cache-trace validation: %v", err)
		}
	}

	report(&c, latencies, g0, g1)
	if atomic.LoadInt32(&fail) != 0 || c.mismatch.Load() > 0 || c.badStatus.Load() > 0 || c.transport.Load() > 0 {
		return 1
	}
	fmt.Println("soak: PASS")
	return 0
}

// waitHealthy polls /healthz until the server answers.
func waitHealthy(client *http.Client, base string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %s", base, d)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadCorpus reads the .ra files and computes the local expectations with
// the exact options a default-configured server applies, so the comparison
// is apples to apples. With useCache the expectations run through a local
// verdict cache — mirroring the server's default — which makes every miss
// verify the canonical system, so witnesses and classes match a caching
// server byte for byte; a seeded renamed clone of each source is kept for
// the -expect-cache traffic.
func loadCorpus(dir string, budgetMS int64, useCache bool) ([]*entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ra"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no .ra corpus under %s", dir)
	}
	sort.Strings(paths)
	cfg := serve.Config{}.Defaulted()
	ctx := context.Background()
	var localCache *paramra.Cache
	if useCache {
		localCache = paramra.NewCache(paramra.CacheOptions{})
	}
	var entries []*entry
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		e := &entry{name: strings.TrimSuffix(filepath.Base(p), ".ra"), src: string(data)}
		sys, err := paramra.Parse(e.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		if useCache {
			e.renSrc = lang.Print(cache.Rename(sys, 7))
		}
		opts, err := cfg.Options(serve.RequestOptions{BudgetMS: budgetMS})
		if err != nil {
			return nil, err
		}
		opts.Cache = localCache
		t0 := time.Now()
		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: local verify: %v", p, err)
		}
		e.wall = time.Since(t0)
		e.unsafe = res.Unsafe
		e.core = serve.VerifyResponse{
			System: sys.Name, Verdict: serve.Verdict(res), Result: serve.FromResult(res),
		}.CoreBytes()
		e.light = e.wall < 500*time.Millisecond

		if e.light {
			dopts := opts
			dopts.Datalog = true
			dres, err := paramra.Verify(ctx, sys, dopts)
			if err != nil {
				return nil, fmt.Errorf("%s: local datalog verify: %v", p, err)
			}
			e.dlCore = serve.VerifyResponse{
				System: sys.Name, Verdict: serve.Verdict(dres), Result: serve.FromResult(dres),
			}.CoreBytes()
			dr, err := paramra.FindDeadlocks(ctx, sys, 1, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: local deadlocks: %v", p, err)
			}
			e.deadRes = &dr
			inv, err := paramra.Inventory(ctx, sys, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: local inventory: %v", p, err)
			}
			e.invRes = inv
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// post sends a request — stamped with traceID when non-empty — and returns
// status, body, ok(transport). A non-empty traceID must be echoed in the
// response's X-Trace-Id header; a silent drop is a propagation failure.
func post(client *http.Client, url, contentType string, body []byte, traceID string, c *counters) (int, []byte, bool) {
	c.requests.Add(1)
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		c.transport.Add(1)
		failf("transport: %s: %v", url, err)
		return 0, nil, false
	}
	req.Header.Set("Content-Type", contentType)
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		c.transport.Add(1)
		failf("transport: %s: %v", url, err)
		return 0, nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.transport.Add(1)
		failf("transport: %s: reading body: %v", url, err)
		return 0, nil, false
	}
	if traceID != "" && resp.Header.Get("X-Trace-Id") != traceID {
		c.mismatch.Add(1)
		failf("trace %s: header echoed %q", traceID, resp.Header.Get("X-Trace-Id"))
	}
	return resp.StatusCode, data, true
}

// doVerify replays one verify request — as the JSON envelope or the raw .ra
// body — and compares the deterministic kernel byte-for-byte. src is the
// source actually sent (e.src, or e.renSrc for renamed-duplicate traffic —
// the expectation bytes are the same either way, which is the point).
func doVerify(client *http.Client, base string, e *entry, src string, budgetMS int64, asJSON bool, c *counters, latMu *sync.Mutex, lat *[]time.Duration) {
	var (
		status int
		data   []byte
		ok     bool
	)
	tid := nextTraceID()
	t0 := time.Now()
	if asJSON {
		body, _ := json.Marshal(serve.VerifyRequest{
			System:  src,
			Options: serve.RequestOptions{BudgetMS: budgetMS},
		})
		status, data, ok = post(client, base+"/v1/verify", "application/json", body, tid, c)
	} else {
		url := base + "/v1/verify"
		if budgetMS > 0 {
			url += fmt.Sprintf("?budgetMs=%d", budgetMS)
		}
		status, data, ok = post(client, url, "text/plain", []byte(src), tid, c)
	}
	if !ok {
		return
	}
	d := time.Since(t0)
	if latMu != nil {
		latMu.Lock()
		*lat = append(*lat, d)
		latMu.Unlock()
	}
	if status != http.StatusOK {
		c.badStatus.Add(1)
		failf("verify %s: status %d: %s", e.name, status, truncate(data))
		return
	}
	var resp serve.VerifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.mismatch.Add(1)
		failf("verify %s: bad response JSON: %v", e.name, err)
		return
	}
	if resp.TraceID != tid {
		c.mismatch.Add(1)
		failf("verify %s: envelope traceId %q, want %q", e.name, resp.TraceID, tid)
	}
	if got := resp.CoreBytes(); !bytes.Equal(got, e.core) {
		c.mismatch.Add(1)
		failf("verify %s: verdict drift:\nserver: %s\nlocal:  %s", e.name, got, e.core)
	}
}

// doDatalog is doVerify with the Datalog backend selected.
func doDatalog(client *http.Client, base string, e *entry, budgetMS int64, c *counters) {
	body, _ := json.Marshal(serve.VerifyRequest{
		System:  e.src,
		Options: serve.RequestOptions{BudgetMS: budgetMS, Datalog: true},
	})
	tid := nextTraceID()
	status, data, ok := post(client, base+"/v1/verify", "application/json", body, tid, c)
	if !ok {
		return
	}
	if status != http.StatusOK {
		if saturation504(status, data) {
			c.saturated.Add(1)
			return
		}
		c.badStatus.Add(1)
		failf("datalog %s: status %d: %s", e.name, status, truncate(data))
		return
	}
	var resp serve.VerifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.mismatch.Add(1)
		failf("datalog %s: bad response JSON: %v", e.name, err)
		return
	}
	if resp.TraceID != tid {
		c.mismatch.Add(1)
		failf("datalog %s: envelope traceId %q, want %q", e.name, resp.TraceID, tid)
	}
	if got := resp.CoreBytes(); !bytes.Equal(got, e.dlCore) {
		c.mismatch.Add(1)
		failf("datalog %s: verdict drift:\nserver: %s\nlocal:  %s", e.name, got, e.dlCore)
	}
}

// doInstance explores the 1-env instance and checks the verdict bit.
func doInstance(client *http.Client, base string, e *entry, budgetMS int64, c *counters) {
	body, _ := json.Marshal(serve.InstanceRequest{
		System:     e.src,
		EnvThreads: 1,
		Options:    serve.RequestOptions{BudgetMS: budgetMS},
	})
	status, data, ok := post(client, base+"/v1/instance", "application/json", body, nextTraceID(), c)
	if !ok {
		return
	}
	if status != http.StatusOK {
		if saturation504(status, data) {
			c.saturated.Add(1)
			return
		}
		c.badStatus.Add(1)
		failf("instance %s: status %d: %s", e.name, status, truncate(data))
		return
	}
	var resp serve.InstanceResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.mismatch.Add(1)
		failf("instance %s: bad response JSON: %v", e.name, err)
	}
}

// doDeadlocks checks the deterministic sink-state counts of the 1-env
// instance.
func doDeadlocks(client *http.Client, base string, e *entry, budgetMS int64, c *counters) {
	body, _ := json.Marshal(serve.InstanceRequest{
		System:     e.src,
		EnvThreads: 1,
		Options:    serve.RequestOptions{BudgetMS: budgetMS},
	})
	status, data, ok := post(client, base+"/v1/deadlocks", "application/json", body, nextTraceID(), c)
	if !ok {
		return
	}
	if status != http.StatusOK {
		if saturation504(status, data) {
			c.saturated.Add(1)
			return
		}
		c.badStatus.Add(1)
		failf("deadlocks %s: status %d: %s", e.name, status, truncate(data))
		return
	}
	var resp serve.DeadlockResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.mismatch.Add(1)
		failf("deadlocks %s: bad response JSON: %v", e.name, err)
		return
	}
	want := serve.FromDeadlockResult(*e.deadRes)
	got := resp.Result
	if got.Deadlocks != want.Deadlocks || got.Terminal != want.Terminal || got.Complete != want.Complete {
		c.mismatch.Add(1)
		failf("deadlocks %s: drift: server %+v local %+v", e.name, got, want)
	}
}

// doInventory checks the full Message Generation relation.
func doInventory(client *http.Client, base string, e *entry, budgetMS int64, c *counters) {
	body, _ := json.Marshal(serve.VerifyRequest{
		System:  e.src,
		Options: serve.RequestOptions{BudgetMS: budgetMS},
	})
	status, data, ok := post(client, base+"/v1/inventory", "application/json", body, nextTraceID(), c)
	if !ok {
		return
	}
	if status != http.StatusOK {
		if saturation504(status, data) {
			c.saturated.Add(1)
			return
		}
		c.badStatus.Add(1)
		failf("inventory %s: status %d: %s", e.name, status, truncate(data))
		return
	}
	var resp serve.InventoryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.mismatch.Add(1)
		failf("inventory %s: bad response JSON: %v", e.name, err)
		return
	}
	want, _ := json.Marshal(e.invRes)
	got, _ := json.Marshal(resp.Inventory)
	if !bytes.Equal(want, got) {
		c.mismatch.Add(1)
		failf("inventory %s: drift: server %s local %s", e.name, got, want)
	}
}

// runProbe sends one intentional-error request and asserts the documented
// status and machine-readable code.
func runProbe(client *http.Client, base string, entries []*entry, rng *rand.Rand) {
	var pc counters // probe requests are counted separately by the caller
	expect := func(wantStatus int, wantCode string, status int, data []byte, ok bool, what string) {
		if !ok {
			return
		}
		if status != wantStatus {
			failf("probe %s: status %d, want %d: %s", what, status, wantStatus, truncate(data))
			return
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			failf("probe %s: error body not JSON: %v", what, err)
			return
		}
		if er.Error.Code != wantCode {
			failf("probe %s: code %q, want %q", what, er.Error.Code, wantCode)
		}
		if er.TraceID == "" {
			failf("probe %s: error envelope missing the generated trace ID", what)
		}
	}
	switch rng.Intn(4) {
	case 0: // syntax error → 400 parse_error
		status, data, ok := post(client, base+"/v1/verify", "text/plain", []byte("system oops {"), "", &pc)
		expect(http.StatusBadRequest, serve.CodeParseError, status, data, ok, "syntax")
	case 1: // negative knob → 400 invalid_options naming the field
		body, _ := json.Marshal(serve.VerifyRequest{
			System:  entries[0].src,
			Options: serve.RequestOptions{MaxStates: -1},
		})
		status, data, ok := post(client, base+"/v1/verify", "application/json", body, "", &pc)
		expect(http.StatusBadRequest, serve.CodeInvalidOptions, status, data, ok, "bad-knob")
	case 2: // tiny client budget on a heavy system, fast paths off → 408
		off := false
		body, _ := json.Marshal(serve.VerifyRequest{
			System:  budgetProbeSrc,
			Options: serve.RequestOptions{BudgetMS: 1, Prepass: &off},
		})
		status, data, ok := post(client, base+"/v1/verify", "application/json", body, "", &pc)
		expect(http.StatusRequestTimeout, serve.CodeBudgetExceeded, status, data, ok, "budget")
	default: // oversized body → 413
		big := append([]byte(entries[0].src), bytes.Repeat([]byte{' '}, 1<<20+1024)...)
		status, data, ok := post(client, base+"/v1/verify", "text/plain", big, "", &pc)
		expect(http.StatusRequestEntityTooLarge, serve.CodeBodyTooLarge, status, data, ok, "oversize")
	}
}

// budgetProbeSrc is the 408 probe's system: the TQBF reduction of a fixed
// depth-3 formula (the scaling experiment's family, seed 7). With the
// prepass off, the fixpoint saturates its one macro-state for 445,689 env
// steps, about 0.1 s on a 2-CPU Xeon, so a 1 ms budget expires on any
// host, and saturation polls its context, so the server answers promptly.
var budgetProbeSrc = func() string {
	sys, err := tqbf.Reduce(tqbf.Random(rand.New(rand.NewSource(7)), 3, 2))
	if err != nil {
		panic(err)
	}
	return lang.Print(sys)
}()

// goroutines reads the server's goroutine count from /statusz.
func goroutines(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /statusz: %w", err)
	}
	return st.Goroutines, nil
}

// validateMetrics fetches /metrics and checks the Prometheus text format
// plus the presence of the server's own families.
func validateMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fams, err := serve.ParsePrometheus(string(text))
	if err != nil {
		return err
	}
	for _, want := range []string{"raserved_requests_total", "raserved_request_ns", "raserved_inflight",
		"raserved_endpoint_verify_ns"} {
		if fams[want] == nil {
			return fmt.Errorf("family %s missing from /metrics", want)
		}
	}
	// Every soak request carried a trace ID, so the endpoint histogram must
	// retain at least one soak exemplar.
	found := false
	for _, tid := range fams["raserved_endpoint_verify_ns"].Exemplars {
		if strings.HasPrefix(tid, "soak-") {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("raserved_endpoint_verify_ns carries no soak exemplar: %v",
			fams["raserved_endpoint_verify_ns"].Exemplars)
	}
	if n := fams["raserved_requests_total"].Samples["raserved_requests_total"]; n <= 0 {
		return fmt.Errorf("raserved_requests_total = %v after a soak run", n)
	}
	return nil
}

// validateCacheMetrics asserts the server's verdict cache saw hits: the
// storm replays every system many times (and renamed clones besides), so a
// caching server must report paramra_cache_hits_total > 0.
func validateCacheMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fams, err := serve.ParsePrometheus(string(text))
	if err != nil {
		return err
	}
	fam := fams["paramra_cache_hits_total"]
	if fam == nil {
		return fmt.Errorf("paramra_cache_hits_total missing from /metrics — is the server's cache enabled?")
	}
	if n := fam.Samples["paramra_cache_hits_total"]; n <= 0 {
		return fmt.Errorf("paramra_cache_hits_total = %v after a duplicate-heavy storm", n)
	}
	return nil
}

// validateCacheTrace sends one traced verify (the corpus was replayed all
// storm long, so this is a guaranteed warm hit) and requires a cache-lookup
// span in the returned tree.
func validateCacheTrace(client *http.Client, base string, e *entry, budgetMS int64) error {
	body, _ := json.Marshal(serve.VerifyRequest{
		System:  e.src,
		Options: serve.RequestOptions{BudgetMS: budgetMS},
	})
	req, err := http.NewRequest("POST", base+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace", "1")
	req.Header.Set("X-Trace-Id", nextTraceID())
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced verify: status %d: %s", resp.StatusCode, truncate(data))
	}
	var vr serve.VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		return fmt.Errorf("traced verify: bad response JSON: %v", err)
	}
	if vr.Trace == nil || len(vr.Trace.Spans) == 0 {
		return fmt.Errorf("traced verify returned no span tree (trace: %+v)", vr.Trace)
	}
	var walk func(nodes []*obs.TreeNode) bool
	walk = func(nodes []*obs.TreeNode) bool {
		for _, n := range nodes {
			if n.Name == "cache-lookup" || walk(n.Children) {
				return true
			}
		}
		return false
	}
	if !walk(vr.Trace.Spans) {
		return fmt.Errorf("no cache-lookup span in the trace tree: %s", truncate(data))
	}
	return nil
}

// validateSlow fetches /debug/slow and checks its shape; with expectEntries
// (a server running with a floor slow threshold) it additionally requires
// soak-traced entries whose span breakdowns are present.
func validateSlow(client *http.Client, base string, expectEntries bool) error {
	resp, err := client.Get(base + "/debug/slow")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/slow: status %d", resp.StatusCode)
	}
	var sr serve.SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("decoding /debug/slow: %w", err)
	}
	for _, e := range sr.Requests {
		if e.TraceID == "" || e.DurNs <= 0 || e.Path == "" {
			return fmt.Errorf("malformed slow entry: %+v", e)
		}
	}
	if !expectEntries {
		return nil
	}
	for _, e := range sr.Requests {
		if strings.HasPrefix(e.TraceID, "soak-") && len(e.Spans) > 0 {
			return nil
		}
	}
	return fmt.Errorf("no soak-traced slow entry with spans among %d entries (total %d)",
		len(sr.Requests), sr.Total)
}

// report prints the end-of-run summary.
func report(c *counters, lats []time.Duration, g0, g1 int) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Printf("soak: %d requests (%d probes), %d verdict mismatches, %d unexpected statuses, %d transport errors, %d saturation 504s\n",
		c.requests.Load(), c.probes.Load(), c.mismatch.Load(), c.badStatus.Load(), c.transport.Load(), c.saturated.Load())
	if len(lats) > 0 {
		fmt.Printf("soak: verify latency p50=%s p90=%s p99=%s max=%s (n=%d)\n",
			pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
			pct(0.99).Round(time.Millisecond), lats[len(lats)-1].Round(time.Millisecond), len(lats))
	}
	fmt.Printf("soak: server goroutines %d → %d\n", g0, g1)
}

// truncate keeps failure output readable.
func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return s
}
