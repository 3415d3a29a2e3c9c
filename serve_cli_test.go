package paramra_test

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startRaserved boots the built raserved binary on an ephemeral port and
// returns its base URL, the running command, and a channel with its final
// combined output.
func startRaserved(t *testing.T, extraArgs ...string) (base string, cmd *exec.Cmd, done chan string) {
	t.Helper()
	dir := buildTools(t)
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extraArgs...)
	cmd = exec.Command(filepath.Join(dir, "raserved"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// First line announces the bound address; everything after is collected
	// for the shutdown assertions.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("raserved produced no output: %v", sc.Err())
	}
	first := sc.Text()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if i < 0 {
		cmd.Process.Kill()
		t.Fatalf("unexpected first line: %q", first)
	}
	base = "http://" + strings.TrimSpace(first[i+len(marker):])

	done = make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
		done <- rest.String()
	}()
	t.Cleanup(func() { cmd.Process.Kill() })
	return base, cmd, done
}

// TestServedSoakEndToEnd is the full-system check of the service: boot the
// real raserved binary, run the real soak harness against it (verdict
// byte-comparison, error probes, goroutine-leak check, /metrics validation),
// then SIGTERM the server and require a clean drain with exit code 0.
func TestServedSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	dir := buildTools(t)
	base, cmd, done := startRaserved(t)

	soak := exec.Command(filepath.Join(dir, "soak"),
		"-addr", base,
		"-corpus", filepath.Join("testdata", "systems"),
		"-duration", "2s",
		"-concurrency", "4",
		"-check-metrics",
	)
	out, err := soak.CombinedOutput()
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "soak: PASS") {
		t.Errorf("soak output missing PASS line:\n%s", out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	werr := cmd.Wait()
	select {
	case rest := <-done:
		if !strings.Contains(rest, "drained cleanly") {
			t.Errorf("shutdown output missing the clean-drain line:\n%s", rest)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("raserved did not exit after SIGTERM")
	}
	if werr != nil {
		t.Errorf("raserved exit after SIGTERM: %v (want code 0)", werr)
	}
}

// TestCLIsRejectNegativeKnobs pins that every CLI front end runs the strict
// Options.Validate and dies with exit 2 naming the offending field, instead
// of the library's silent clamp.
func TestCLIsRejectNegativeKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	path := writeTemp(t, "pc.ra", cliProdCons)
	cases := []struct {
		tool  string
		args  []string
		field string
	}{
		{"raverify", []string{"-max-states=-1", path}, "MaxMacroStates"},
		{"raverify", []string{"-unroll=-2", path}, "UnrollDis"},
		{"raexplore", []string{"-max-states=-1", path}, "MaxStates"},
		{"radatalog", []string{"-max-skeletons=-1", path}, "MaxSkeletons"},
	}
	for _, tc := range cases {
		out, code := runTool(t, tc.tool, tc.args...)
		if code != 2 || !strings.Contains(out, tc.field) {
			t.Errorf("%s %v: code=%d out=%q, want exit 2 naming %s", tc.tool, tc.args, code, out, tc.field)
		}
	}
}

// TestServedRejectsUsageErrors pins the usage exit code.
func TestServedRejectsUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds skipped in -short mode")
	}
	out, code := runTool(t, "raserved", "positional-arg-not-allowed")
	if code != 2 || !strings.Contains(out, "usage") {
		t.Errorf("usage error: code=%d out=%s", code, out)
	}
	out, code = runTool(t, "soak")
	if code != 2 || !strings.Contains(out, "usage") {
		t.Errorf("soak usage error: code=%d out=%s", code, out)
	}
}
