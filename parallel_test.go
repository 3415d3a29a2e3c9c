package paramra_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/lang"
	"paramra/internal/serve"
)

// TestParallelDeterministicVerdictsTestdata pins the Datalog backend's
// determinism: each input is verified with the Datalog backend once, then
// repeatedly, and must give the same verdict, Complete, DecidedBy, witness
// and all five Datalog counters, which cover the instances up to and
// including the first unsafe one in walk order. `go test -short` runs one
// repetition.
//
// The inputs are the shipped systems and every corpus entry, each with
// the prepass off, and every corpus entry with the options raserved gives
// a request that names the Datalog backend and nothing else (prepass on,
// so the Datalog backend runs in slices beside the replay's).
func TestParallelDeterministicVerdictsTestdata(t *testing.T) {
	iters := 5
	if testing.Short() {
		iters = 1
	}
	check := func(t *testing.T, sys *paramra.System, opts paramra.Options) {
		t.Helper()
		opts.Datalog = true
		base, err := paramra.Verify(context.Background(), sys, opts)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		for i := 0; i < iters; i++ {
			res, err := paramra.Verify(context.Background(), sys, opts)
			if err != nil {
				t.Fatalf("iter %d: verify: %v", i, err)
			}
			if res.Unsafe != base.Unsafe || res.Complete != base.Complete || res.DecidedBy != base.DecidedBy {
				t.Fatalf("iter %d: verdict (%v,%v) by %s vs (%v,%v) by %s", i,
					res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete, base.DecidedBy)
			}
			if !reflect.DeepEqual(res.Witness, base.Witness) {
				t.Errorf("iter %d: %s witness %v vs %v", i, res.DecidedBy, res.Witness, base.Witness)
			}
			if got, want := datalogStats(res.Stats), datalogStats(base.Stats); got != want {
				t.Errorf("iter %d: stats %+v vs %+v", i, got, want)
			}
		}
	}

	for name := range testdataVerdicts {
		t.Run(name, func(t *testing.T) {
			sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", name))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			check(t, sys, paramra.Options{})
		})
	}

	served, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{Datalog: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Corpus() {
		t.Run("served/"+e.Name, func(t *testing.T) { check(t, e.System(), served) })
	}
	for _, e := range bench.Corpus() {
		t.Run("datalog/"+e.Name, func(t *testing.T) { check(t, e.System(), paramra.Options{}) })
	}
}

// datalogStats projects the Datalog counter group.
func datalogStats(s paramra.Stats) [5]int {
	return [5]int{s.Skeletons, s.DatalogFacts, s.DatalogRules, s.DatalogAtoms, s.FixpointRounds}
}

// fixpointStats projects the fixpoint's own counter group.
func fixpointStats(s paramra.Stats) [5]int {
	return [5]int{s.MacroStates, s.DisTransitions, s.EnvConfigs, s.EnvMsgs, s.SaturationSteps}
}

// TestVerifyContextCancellation: a cancelled context surfaces as the
// returned error with a partial, incomplete result.
func TestVerifyContextCancellation(t *testing.T) {
	sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", "peterson.ra"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := paramra.Verify(ctx, sys, paramra.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Complete {
		t.Error("cancelled run reported complete")
	}
}

// TestConfirmViolationTypedErrors pins the *ConfirmError contract: which
// variant is returned, its fields, and the exact (pre-existing) messages.
func TestConfirmViolationTypedErrors(t *testing.T) {
	ctx := context.Background()

	// A safe system cannot be confirmed: every instance search completes
	// without a violation, so the error blames maxN, not the state cap.
	safeSys, err := paramra.ParseFile(filepath.Join("testdata", "systems", "mp.ra"))
	if err != nil {
		t.Fatal(err)
	}
	res := paramra.Result{Unsafe: true, EnvThreadBound: 2}
	_, _, err = paramra.ConfirmViolation(ctx, safeSys, res, 4, paramra.Options{MaxStates: 100_000})
	var ce *paramra.ConfirmError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *ConfirmError", err, err)
	}
	if ce.BoundTried != 2 || ce.StateCapHit {
		t.Errorf("ConfirmError = %+v, want BoundTried=2 StateCapHit=false", ce)
	}
	if want := "paramra: no confirmation within 2 env threads (raise maxN)"; err.Error() != want {
		t.Errorf("message %q, want %q", err.Error(), want)
	}

	// With a tiny state cap the searches are truncated, so the error blames
	// the cap.
	_, _, err = paramra.ConfirmViolation(ctx, safeSys, res, 4, paramra.Options{MaxStates: 2})
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *ConfirmError", err, err)
	}
	if !ce.StateCapHit {
		t.Errorf("ConfirmError = %+v, want StateCapHit=true", ce)
	}
	if want := "paramra: no confirmation within 2 env threads (state cap hit; raise maxStates)"; err.Error() != want {
		t.Errorf("message %q, want %q", err.Error(), want)
	}

	// Not a violation at all.
	if _, _, err := paramra.ConfirmViolation(ctx, safeSys, paramra.Result{}, 4, paramra.Options{}); err == nil || errors.As(err, &ce) {
		t.Errorf("non-violation: err = %v, want a plain error", err)
	}
}

// TestFixpointUnsafeConfirmedCorpus checks Theorem 3.4 on every UNSAFE
// corpus entry as the fixpoint decides it (prepass off): the verdict carries
// the dependency graph of its violating computation and a §4.3 bound, and
// ConfirmViolation finds the violation on a concrete instance within that
// bound, at the entry's annotated minimum of env threads.
func TestFixpointUnsafeConfirmedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("concrete confirmation skipped in -short mode")
	}
	ctx := context.Background()
	for _, e := range bench.Corpus() {
		if e.Want != bench.Unsafe {
			continue
		}
		sys := e.System()
		res, err := paramra.Verify(ctx, sys, paramra.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !res.Unsafe || res.Graph == nil || res.EnvThreadBound < 0 {
			t.Errorf("%s: unsafe=%v graph=%v bound=%d, want UNSAFE with a graph and a bound",
				e.Name, res.Unsafe, res.Graph != nil, res.EnvThreadBound)
			continue
		}
		n, _, err := paramra.ConfirmViolation(ctx, sys, res, int(res.EnvThreadBound),
			paramra.Options{MaxStates: 2_000_000})
		if err != nil {
			t.Errorf("%s: bound %d: %v", e.Name, res.EnvThreadBound, err)
			continue
		}
		if n != e.MinEnv {
			t.Errorf("%s: confirmed with %d env threads, corpus MinEnv %d", e.Name, n, e.MinEnv)
		}
	}
}

// TestParseFileErrorShapes pins the error format of ParseFile: syntax
// errors join the path with no space ("file:line:col: msg"), every other
// error keeps the conventional "path: msg" shape, and both remain
// errors.As/Is-transparent.
func TestParseFileErrorShapes(t *testing.T) {
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.ra")
	if err := os.WriteFile(bad, []byte("system broken {"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := paramra.ParseFile(bad)
	if err == nil {
		t.Fatal("expected syntax error")
	}
	var syn *lang.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("syntax error not errors.As-reachable through %T: %v", err, err)
	}
	if !strings.HasPrefix(err.Error(), bad+":") || strings.HasPrefix(err.Error(), bad+": ") {
		t.Errorf("syntax error %q, want %q prefix with no space (file:line:col shape)", err.Error(), bad+":")
	}

	// Semantic (non-syntax) errors get the conventional ": " separator.
	dup := filepath.Join(dir, "dup.ra")
	if err := os.WriteFile(dup, []byte(`
system dup { vars x x; domain 2; env p }
thread p { store x 1 }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = paramra.ParseFile(dup)
	if err == nil {
		t.Fatal("expected duplicate-variable error")
	}
	if errors.As(err, &syn) {
		t.Fatalf("semantic error unexpectedly a SyntaxError: %v", err)
	}
	if !strings.HasPrefix(err.Error(), dup+": ") {
		t.Errorf("semantic error %q, want %q prefix", err.Error(), dup+": ")
	}

	// Missing files surface the os error unchanged.
	if _, err := paramra.ParseFile(filepath.Join(dir, "absent.ra")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file err = %v, want os.ErrNotExist", err)
	}
}

// BenchmarkVerify measures Verify, the fixpoint with the prepass off, over
// the shipped systems.
func BenchmarkVerify(b *testing.B) {
	for _, name := range []string{"peterson.ra", "prodcons.ra", "spinlock.ra"} {
		sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", name))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimSuffix(name, ".ra"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := paramra.Verify(context.Background(), sys, paramra.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyInstance measures the concrete explorer, a sequential
// depth-first search, on mp with two env threads.
func BenchmarkVerifyInstance(b *testing.B) {
	sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", "mp.ra"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := paramra.VerifyInstance(context.Background(), sys, 2, paramra.Options{MaxStates: 500_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
