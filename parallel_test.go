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

// TestParallelDeterministicVerdictsTestdata is the stress form of the
// determinism contract: every shipped system, verified repeatedly at
// Parallelism 8, must produce the same verdict, stats, witness and §4.3
// env-thread bound as a 1-worker run. Under -race this also exercises the
// engine's synchronization. `go test -short` runs one iteration.
//
// A second pass verifies every corpus entry with the options raserved
// gives a request that names none (prepass on), at Parallelism 1 and 8, and
// compares the verdict, Complete, DecidedBy, the env-thread bound and the
// witness: the prepass replay runs on one worker at any Parallelism, and
// the schedule that alternates it with the fixpoint counts its budgets in
// states.
//
// A third pass runs the Datalog backend on every corpus entry at
// Parallelism 1 and 8 and compares the verdict, Complete and all five
// Datalog counters: they cover the instances up to and including the first
// unsafe one in walk order, whichever worker finishes first. The instances
// continue from one shared model that all workers read at once; under
// -race this checks that nothing writes to it.
func TestParallelDeterministicVerdictsTestdata(t *testing.T) {
	iters := 5
	if testing.Short() {
		iters = 1
	}
	for name := range testdataVerdicts {
		t.Run(name, func(t *testing.T) {
			sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", name))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			base, err := paramra.Verify(context.Background(), sys, paramra.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("verify j=1: %v", err)
			}
			for i := 0; i < iters; i++ {
				res, err := paramra.Verify(context.Background(), sys, paramra.Options{Parallelism: 8})
				if err != nil {
					t.Fatalf("iter %d: verify j=8: %v", i, err)
				}
				if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
					t.Fatalf("iter %d: verdict (%v,%v) vs (%v,%v)",
						i, res.Unsafe, res.Complete, base.Unsafe, base.Complete)
				}
				if res.EnvThreadBound != base.EnvThreadBound {
					t.Errorf("iter %d: env-thread bound %d vs %d",
						i, res.EnvThreadBound, base.EnvThreadBound)
				}
				if !reflect.DeepEqual(res.Witness, base.Witness) {
					t.Errorf("iter %d: witness %v vs %v", i, res.Witness, base.Witness)
				}
				if got, want := fixpointStats(res.Stats), fixpointStats(base.Stats); got != want {
					t.Errorf("iter %d: stats %+v vs %+v", i, got, want)
				}
			}
		})
	}

	served, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Corpus() {
		t.Run("served/"+e.Name, func(t *testing.T) {
			sys := e.System()
			opts := served
			opts.Parallelism = 1
			base, err := paramra.Verify(context.Background(), sys, opts)
			if err != nil {
				t.Fatalf("verify j=1: %v", err)
			}
			opts.Parallelism = 8
			for i := 0; i < iters; i++ {
				res, err := paramra.Verify(context.Background(), sys, opts)
				if err != nil {
					t.Fatalf("iter %d: verify j=8: %v", i, err)
				}
				if res.Unsafe != base.Unsafe || res.Complete != base.Complete || res.DecidedBy != base.DecidedBy {
					t.Fatalf("iter %d: verdict (%v,%v) by %s vs (%v,%v) by %s", i,
						res.Unsafe, res.Complete, res.DecidedBy, base.Unsafe, base.Complete, base.DecidedBy)
				}
				if res.EnvThreadBound != base.EnvThreadBound {
					t.Errorf("iter %d: env-thread bound %d vs %d",
						i, res.EnvThreadBound, base.EnvThreadBound)
				}
				if !reflect.DeepEqual(res.Witness, base.Witness) {
					t.Errorf("iter %d: %s witness %v vs %v", i, res.DecidedBy, res.Witness, base.Witness)
				}
			}
		})
	}

	for _, e := range bench.Corpus() {
		sys := e.System()
		t.Run("datalog/"+e.Name, func(t *testing.T) {
			opts := paramra.Options{Datalog: true, Parallelism: 1}
			base, err := paramra.Verify(context.Background(), sys, opts)
			if err != nil {
				t.Fatalf("verify j=1: %v", err)
			}
			opts.Parallelism = 8
			for i := 0; i < iters; i++ {
				res, err := paramra.Verify(context.Background(), sys, opts)
				if err != nil {
					t.Fatalf("iter %d: verify j=8: %v", i, err)
				}
				if res.Unsafe != base.Unsafe || res.Complete != base.Complete {
					t.Fatalf("iter %d: verdict (%v,%v) vs (%v,%v)",
						i, res.Unsafe, res.Complete, base.Unsafe, base.Complete)
				}
				if got, want := datalogStats(res.Stats), datalogStats(base.Stats); got != want {
					t.Errorf("iter %d: stats %+v vs %+v", i, got, want)
				}
			}
		})
	}
}

// datalogStats projects the Datalog counter group.
func datalogStats(s paramra.Stats) [5]int {
	return [5]int{s.Skeletons, s.DatalogFacts, s.DatalogRules, s.DatalogAtoms, s.FixpointRounds}
}

// fixpointStats projects the deterministic fixpoint counter group (the
// engine group — wall time, dedup hits — legitimately varies run to run;
// dedup hits only via which side of a race pays the counter, never the
// admitted set).
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

// BenchmarkVerifyParallel measures Verify wall time per worker count over
// the shipped systems (the BENCH_parallel.json baseline is generated from
// the same engine via `rabench parallel`).
func BenchmarkVerifyParallel(b *testing.B) {
	for _, name := range []string{"peterson.ra", "prodcons.ra", "spinlock.ra"} {
		sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", name))
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range []int{1, 2, 4, 8} {
			b.Run(strings.TrimSuffix(name, ".ra")+"/j="+itoa(j), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := paramra.Verify(context.Background(), sys, paramra.Options{Parallelism: j}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVerifyInstanceParallel measures the concrete explorer on the
// free-order engine per worker count.
func BenchmarkVerifyInstanceParallel(b *testing.B) {
	sys, err := paramra.ParseFile(filepath.Join("testdata", "systems", "mp.ra"))
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{1, 2, 4, 8} {
		b.Run("mp/env=2/j="+itoa(j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := paramra.VerifyInstance(context.Background(), sys, 2, paramra.Options{
					MaxStates: 500_000, Parallelism: j,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
