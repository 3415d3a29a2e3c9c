package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startServe runs s on an ephemeral port under Serve's lifecycle management
// and returns its base URL, the cancel that initiates the drain, and a
// channel carrying Serve's return value.
func startServe(t *testing.T, s *Server, grace time.Duration) (base string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, grace) }()
	base = fmt.Sprintf("http://%s", ln.Addr())
	waitReady(t, base)
	return base, cancel, done
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server did not become healthy")
}

// TestGracefulDrainCompletesInflight pins the drain contract: a request
// running when shutdown starts still gets its full (deterministic) response,
// and Serve returns nil once it has finished.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	s := New(Config{})
	// The request is parked inside handleVerify until the drain has begun,
	// so it is in flight when shutdown starts however fast verification is.
	arrived := holdUntilDrain(s)
	base, cancel, done := startServe(t, s, 10*time.Second)

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(VerifyRequest{System: sysUnsafe})
		resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resc <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()

	<-arrived
	cancel()

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200 (body %s)", r.status, r.body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(r.body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict != "UNSAFE" {
		t.Errorf("in-flight request during drain: verdict %q, want UNSAFE", vr.Verdict)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}

	// The drained listener is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after drain")
	}
}

// TestDrainRefusesNewWork pins that verification endpoints turn 503 once the
// drain begins, while health stays up until the listener closes.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, 5*time.Second) }()
	base := fmt.Sprintf("http://%s", ln.Addr())
	waitReady(t, base)

	s.BeginDrain()
	status, body := postJSON(t, base+"/v1/verify", VerifyRequest{System: sysSafe})
	wantError(t, status, body, http.StatusServiceUnavailable, CodeDraining, "")

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("Serve after idle drain: %v", err)
	}
}

// TestBurstNoGoroutineLeak pins that a 200-request burst leaves no stray
// goroutines behind: the count settles back to (near) the pre-burst level.
func TestBurstNoGoroutineLeak(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Warm up the pools (HTTP keep-alive, verifier workers), then baseline.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sysSafe})
	}
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	g0 := runtime.NumGoroutine()

	const requests = 200
	var wg sync.WaitGroup
	sys := []string{sysSafe, sysUnsafe}
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{System: sys[i%2]})
			if status != http.StatusOK {
				t.Errorf("burst request %d: %d %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()

	// Settle: idle HTTP conns park, verifier goroutines exit.
	deadline := time.Now().Add(5 * time.Second)
	var g1 int
	for {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		g1 = runtime.NumGoroutine()
		if g1 <= g0+8 || time.Now().After(deadline) {
			break
		}
	}
	if g1 > g0+8 {
		t.Errorf("goroutine leak across the burst: %d before, %d after", g0, g1)
	}
}
