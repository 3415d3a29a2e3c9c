package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paramra/internal/obs"
)

// Test systems in .ra concrete syntax (mirroring the repo corpus).
const (
	sysUnsafe = `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`
	sysSafe = `
system mp { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`
	sysEnvCAS = `
system bad { vars x; domain 2; env e }
thread e { cas x 0 1 }
`
)

// newTestServer builds a default-configured server and an httptest wrapper
// around its full middleware stack.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON sends a JSON verification request and decodes the response body.
func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// wantError decodes an error envelope and asserts status/code (and field,
// when non-empty).
func wantError(t *testing.T, status int, body []byte, wantStatus int, wantCode, wantField string) ErrorResponse {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body not an ErrorResponse: %v (%s)", err, body)
	}
	if er.Error.Code != wantCode {
		t.Errorf("code = %q, want %q (message %q)", er.Error.Code, wantCode, er.Error.Message)
	}
	if wantField != "" && er.Error.Field != wantField {
		t.Errorf("field = %q, want %q", er.Error.Field, wantField)
	}
	if er.Error.Status != wantStatus {
		t.Errorf("body status = %d, want %d", er.Error.Status, wantStatus)
	}
	if er.APIVersion != APIVersion {
		t.Errorf("apiVersion = %q", er.APIVersion)
	}
	return er
}

func TestServerVerifyJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysUnsafe})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "UNSAFE" || !resp.Result.Unsafe || !resp.Result.Complete {
		t.Errorf("prodcons verdict: %+v", resp)
	}
	if resp.System != "prodcons" || resp.APIVersion != APIVersion || resp.RequestID == "" {
		t.Errorf("envelope fields: %+v", resp)
	}

	status, body = postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysSafe})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "SAFE" || resp.Result.Unsafe {
		t.Errorf("mp verdict: %+v", resp)
	}
}

func TestServerVerifyRawBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/verify?datalog=1", "text/plain", strings.NewReader(sysUnsafe))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var vr VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Result.Unsafe || vr.Result.DecidedBy == "fixpoint" {
		t.Errorf("raw-body datalog verify: %+v", vr.Result)
	}
}

func TestServerVerifyConfirm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		System:  sysUnsafe,
		Options: RequestOptions{Confirm: true, ConfirmMaxEnv: 3},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Confirm == nil || resp.Confirm.Error != nil {
		t.Fatalf("confirm missing or failed: %+v", resp.Confirm)
	}
	if resp.Confirm.EnvThreads < 1 || resp.Confirm.Witness == "" {
		t.Errorf("confirm payload: %+v", resp.Confirm)
	}
}

func TestServerParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: "system oops {"})
	wantError(t, status, body, http.StatusBadRequest, CodeParseError, "")
}

func TestServerEmptySystem(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{})
	wantError(t, status, body, http.StatusBadRequest, CodeInvalidOptions, "system")
}

func TestServerInvalidOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		opts  RequestOptions
		field string
	}{
		{"negative maxStates", RequestOptions{MaxStates: -1}, "maxStates"},
		{"negative parallelism", RequestOptions{Parallelism: -2}, "parallelism"},
		{"negative budget", RequestOptions{BudgetMS: -5}, "budgetMs"},
		{"budget above cap", RequestOptions{BudgetMS: time.Hour.Milliseconds()}, "budgetMs"},
		{"parallelism above cap", RequestOptions{Parallelism: 1 << 20}, "parallelism"},
		{"maxStates above cap", RequestOptions{MaxStates: 1 << 30}, "maxStates"},
		{"negative confirmMaxEnv", RequestOptions{ConfirmMaxEnv: -1}, "confirmMaxEnv"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysSafe, Options: tc.opts})
			wantError(t, status, body, http.StatusBadRequest, CodeInvalidOptions, tc.field)
		})
	}
}

// TestServerBudget408 pins the budget-source discrimination: a
// client-requested budget that expires is the client's fault (408), the
// server default expiring is the server's (504). The hook holds each
// request until its budget has run out, so neither test depends on how
// long the verification itself would take.
func TestServerBudget408(t *testing.T) {
	off := false
	s, ts := newTestServer(t, Config{})
	holdUntilBudgetExpires(s)
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		System:  sysUnsafe,
		Options: RequestOptions{BudgetMS: 1, Prepass: &off},
	})
	wantError(t, status, body, http.StatusRequestTimeout, CodeBudgetExceeded, "")
}

func TestServerBudget504(t *testing.T) {
	off := false
	s, ts := newTestServer(t, Config{DefaultBudget: time.Millisecond})
	holdUntilBudgetExpires(s)
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		System:  sysUnsafe,
		Options: RequestOptions{Prepass: &off},
	})
	wantError(t, status, body, http.StatusGatewayTimeout, CodeServerBudget, "")
}

// sysLongReplay is a SAFE barrier whose workers reset `arrived`: the
// prepass finds a candidate path to the assert, and its replay with four
// env replicas has about 305,000 states, while the fixpoint decides the
// system in well under a millisecond.
const sysLongReplay = `
system barrier2 { vars arrived go done; domain 2; env worker; dis releaser; dis checker }
thread worker {
  regs g
  store arrived 1
  g = load go; assume g == 1
  store done 1
  store arrived 0
}
thread releaser { regs a; a = load arrived; assume a == 1; store go 1 }
thread checker {
  regs d g
  d = load done; assume d == 1
  g = load go; assume g == 0
  assert false
}
`

// TestServerReplayCapIsLibraryDefault pins that the server's concrete
// state cap (MaxStatesCap, 2,000,000) does not become the prepass replay
// cap. With maxMacroStates 1 only the replay can run on, so its last round
// runs at the cap it would get: the library's 30,000-state default per
// instance, which this system's replay outgrows, so the answer is UNKNOWN
// after more than one instance's cap and at most five. Under the default
// options the fixpoint decides the system SAFE long before the replay has
// spent one instance's cap.
func TestServerReplayCapIsLibraryDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(t *testing.T, opts RequestOptions) (VerifyResponse, []*obs.TreeNode) {
		t.Helper()
		status, body, _ := postTraced(t, ts.URL+"/v1/verify", "", true, VerifyRequest{System: sysLongReplay, Options: opts})
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var resp VerifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Trace == nil {
			t.Fatal("no span tree in a traced response")
		}
		var pre []*obs.TreeNode
		obs.WalkTree(resp.Trace.Spans, func(n *obs.TreeNode) {
			if n.Name == "prepass" {
				pre = append(pre, n)
			}
		})
		if len(pre) == 0 {
			t.Fatal("no prepass span in the trace")
		}
		return resp, pre
	}

	t.Run("replay-only", func(t *testing.T) {
		resp, pre := post(t, RequestOptions{MaxMacroStates: 1})
		if resp.Verdict != "UNKNOWN (limit reached)" {
			t.Errorf("verdict %s decided by %q, want UNKNOWN (limit reached)", resp.Verdict, resp.Result.DecidedBy)
		}
		last := pre[len(pre)-1]
		if budget, _ := last.Attrs["budget"].(float64); budget != 30_000 {
			t.Errorf("last replay round's budget = %v, want the library default of 30000", last.Attrs["budget"])
		}
		// Five replay instances (0..4 env replicas), each capped at 30,000.
		states, _ := last.Attrs["replay_states"].(float64)
		if states <= 30_000 || states > 5*30_000 {
			t.Errorf("last replay round explored %v states, want more than one instance's cap of 30000 and at most 5×30000", states)
		}
	})

	t.Run("default", func(t *testing.T) {
		resp, pre := post(t, RequestOptions{})
		if resp.Verdict != "SAFE" || resp.Result.DecidedBy != "fixpoint" {
			t.Errorf("verdict %s decided by %q, want SAFE by the fixpoint", resp.Verdict, resp.Result.DecidedBy)
		}
		var states float64
		for _, n := range pre {
			v, _ := n.Attrs["replay_states"].(float64)
			states += v
		}
		if states >= 30_000 {
			t.Errorf("the replay explored %v states in all, want fewer than one instance's cap of 30000", states)
		}
	})
}

// TestServerUndecidable422 pins the class check: env CAS is outside the
// decidable class (Theorem 1.1), surfaced as 422. Prepass must be off — the
// assert-free probe system would otherwise be decided SAFE statically before
// the class check runs.
func TestServerUndecidable422(t *testing.T) {
	off := false
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		System:  sysEnvCAS,
		Options: RequestOptions{Prepass: &off},
	})
	wantError(t, status, body, http.StatusUnprocessableEntity, CodeUndecidable, "")
}

func TestServerFallback404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/verify"}, // wrong method
		{"POST", "/v1/nope"},  // unknown path
		{"GET", "/"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		wantError(t, resp.StatusCode, buf.Bytes(), http.StatusNotFound, CodeBadRequest, "")
	}
}

func TestServerInstanceAndDeadlocks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/instance", InstanceRequest{System: sysUnsafe, EnvThreads: 1})
	if status != http.StatusOK {
		t.Fatalf("instance status = %d: %s", status, body)
	}
	var ir InstanceResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Result.Unsafe || ir.Verdict != "UNSAFE" || ir.EnvThreads != 1 {
		t.Errorf("instance: %+v", ir)
	}
	if ir.Result.Witness == "" {
		t.Error("instance witness missing")
	}

	status, body = postJSON(t, ts.URL+"/v1/deadlocks", InstanceRequest{System: sysSafe, EnvThreads: 1})
	if status != http.StatusOK {
		t.Fatalf("deadlocks status = %d: %s", status, body)
	}
	var dr DeadlockResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Result.Complete || dr.Result.Deadlocks+dr.Result.Terminal == 0 {
		t.Errorf("deadlocks: %+v", dr.Result)
	}
	if dr.Result.Deadlocks > 0 && (dr.Result.Example == "" || len(dr.Result.StuckThreads) == 0) {
		t.Errorf("deadlock report missing example/stuck threads: %+v", dr.Result)
	}

	// Instance-size cap.
	status, body = postJSON(t, ts.URL+"/v1/instance", InstanceRequest{System: sysSafe, EnvThreads: 99})
	wantError(t, status, body, http.StatusBadRequest, CodeInvalidOptions, "envThreads")
	status, body = postJSON(t, ts.URL+"/v1/instance", InstanceRequest{System: sysSafe, EnvThreads: -1})
	wantError(t, status, body, http.StatusBadRequest, CodeInvalidOptions, "envThreads")
}

func TestServerInventory(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/inventory", VerifyRequest{System: sysSafe})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var inv InventoryResponse
	if err := json.Unmarshal(body, &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Inventory) == 0 {
		t.Errorf("empty inventory: %s", body)
	}
	for _, v := range []string{"x", "y"} {
		if _, okVar := inv.Inventory[v]; !okVar {
			t.Errorf("inventory missing %s: %v", v, inv.Inventory)
		}
	}
}

func TestServerStatusAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
	}
	// One request so served > 0.
	postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysSafe})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Goroutines <= 0 || st.Served < 1 || st.Draining || st.APIVersion != APIVersion {
		t.Errorf("statusz: %+v", st)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", resp.StatusCode)
	}
}

// TestServerMetricsEndpoint exercises a few requests then validates the
// exposition end to end with the package's own parser.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysUnsafe})
	postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysSafe})
	postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: "broken {"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(buf.String())
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, buf.String())
	}
	checks := []struct {
		family string
		min    float64
	}{
		{"raserved_requests_total", 3},
		{"raserved_responses_2xx_total", 2},
		{"raserved_responses_4xx_total", 1},
		{"raserved_verdict_safe_total", 1},
		{"raserved_verdict_unsafe_total", 1},
	}
	for _, c := range checks {
		f := fams[c.family]
		if f == nil {
			t.Errorf("family %s missing", c.family)
			continue
		}
		if got := f.Samples[c.family]; got < c.min {
			t.Errorf("%s = %v, want ≥ %v", c.family, got, c.min)
		}
	}

	// JSON flavor of the same registry.
	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snapshot map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snapshot); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snapshot) == 0 {
		t.Error("empty /metrics.json snapshot")
	}
}

// TestServerRequestIDEcho pins that a caller-provided X-Request-Id flows
// into the response envelope and header.
func TestServerRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(VerifyRequest{System: sysSafe})
	req, err := http.NewRequest("POST", ts.URL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-42" {
		t.Errorf("response header X-Request-Id = %q", got)
	}
	var vr VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.RequestID != "caller-42" {
		t.Errorf("envelope requestId = %q", vr.RequestID)
	}
}

// TestBudgetResolution covers Config.budget directly.
func TestBudgetResolution(t *testing.T) {
	cfg := Config{DefaultBudget: 30 * time.Second, MaxBudget: time.Minute}.Defaulted()
	if d, src, err := cfg.budget(0); err != nil || d != 30*time.Second || src != budgetServer {
		t.Errorf("default budget: %v %v %v", d, src, err)
	}
	if d, src, err := cfg.budget(1500); err != nil || d != 1500*time.Millisecond || src != budgetClient {
		t.Errorf("client budget: %v %v %v", d, src, err)
	}
	if _, _, err := cfg.budget(-1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, _, err := cfg.budget((2 * time.Minute).Milliseconds()); err == nil {
		t.Error("above-cap budget accepted")
	}
}

// TestConfigOptions covers the wire-knob → Options mapping invariants.
func TestConfigOptions(t *testing.T) {
	cfg := Config{}.Defaulted()
	opts, err := cfg.Options(RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Prepass {
		t.Error("prepass should default on, matching the CLIs")
	}
	if opts.MaxStates != cfg.MaxStatesCap {
		t.Errorf("MaxStates = %d, want the server cap %d (never unbounded)", opts.MaxStates, cfg.MaxStatesCap)
	}
	off := false
	opts, err = cfg.Options(RequestOptions{Prepass: &off, GoalVar: "x", GoalVal: 2})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Prepass {
		t.Error("explicit prepass=false ignored")
	}
	if opts.Goal == nil || opts.Goal.Var != "x" || opts.Goal.Val != 2 {
		t.Errorf("goal mapping: %+v", opts.Goal)
	}
}

// TestServerDatalogMatchesFixpoint cross-checks the two backends through the
// wire API on both corpus litmus tests.
func TestServerDatalogMatchesFixpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, src := range []string{sysUnsafe, sysSafe} {
		var verdicts []string
		for _, datalog := range []bool{false, true} {
			status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
				System:  src,
				Options: RequestOptions{Datalog: datalog},
			})
			if status != http.StatusOK {
				t.Fatalf("datalog=%v: status %d: %s", datalog, status, body)
			}
			var vr VerifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, fmt.Sprintf("%s unsafe=%v", vr.Verdict, vr.Result.Unsafe))
		}
		if verdicts[0] != verdicts[1] {
			t.Errorf("backend divergence on the wire: fixpoint=%q datalog=%q", verdicts[0], verdicts[1])
		}
	}
}
