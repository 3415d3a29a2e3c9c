package simplified_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// TestParallelMatchesSequentialCorpus is the exactness contract of the
// layered engine: for every corpus entry, VerifyContext must agree with the
// sequential reference search, which shares the semantics but not the
// engine, on the verdict, completeness, every statistic, and the
// violation's read logs and dis message provenance (the inputs of the
// §4.3 env-thread bound).
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, e := range bench.Corpus() {
		t.Run(e.Name, func(t *testing.T) {
			seqV, err := simplified.New(e.System(), simplified.Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			seq := simplified.SequentialVerifyForTest(seqV)
			layV, err := simplified.New(e.System(), simplified.Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			lay := layV.VerifyContext(context.Background())

			if lay.Unsafe != seq.Unsafe || lay.Complete != seq.Complete {
				t.Fatalf("verdict (%v,%v) vs sequential (%v,%v)", lay.Unsafe, lay.Complete, seq.Unsafe, seq.Complete)
			}
			if lay.Stats != seq.Stats {
				t.Errorf("stats %+v vs sequential %+v", lay.Stats, seq.Stats)
			}
			if (lay.Violation == nil) != (seq.Violation == nil) {
				t.Fatalf("violation presence differs")
			}
			if lay.Violation == nil {
				return
			}
			lv, sv := lay.Violation, seq.Violation
			if lv.ByEnv != sv.ByEnv || lv.DisIndex != sv.DisIndex {
				t.Errorf("violation source (%v,%d) vs (%v,%d)", lv.ByEnv, lv.DisIndex, sv.ByEnv, sv.DisIndex)
			}
			// A reference pins a dis message only with the memory compared
			// below, and an env message not at all, so the logs are also
			// compared as the keys they resolve to: the witness paramra
			// returns.
			lr, sr := lv.Resolver(), sv.Resolver()
			sameLog := func(what string, l, s *simplified.ReadLog) {
				t.Helper()
				if got, want := l.Refs(), s.Refs(); !slices.Equal(got, want) {
					t.Errorf("%s %v vs %v", what, got, want)
				}
				got, lerr := lr.Keys(l)
				want, serr := sr.Keys(s)
				if lerr != nil || serr != nil {
					t.Errorf("%s does not resolve: %v / %v", what, lerr, serr)
				} else if !slices.Equal(got, want) {
					t.Errorf("%s keys %v vs %v", what, got, want)
				}
			}
			sameLog("violating read log", lv.Log, sv.Log)
			if len(lv.DisLogs) != len(sv.DisLogs) {
				t.Fatalf("%d dis read logs vs %d", len(lv.DisLogs), len(sv.DisLogs))
			}
			for i := range sv.DisLogs {
				sameLog(fmt.Sprintf("dis %d read log", i), lv.DisLogs[i], sv.DisLogs[i])
			}
			// Every dis message carries its provenance: the same messages,
			// with the same generating thread and read log.
			for x := 0; x < sv.Mem.NumVars(); x++ {
				lm, sm := lv.Mem.VarMsgs(lang.VarID(x)), sv.Mem.VarMsgs(lang.VarID(x))
				if len(lm) != len(sm) {
					t.Errorf("%d dis messages on var %d vs %d", len(lm), x, len(sm))
					continue
				}
				for i, want := range sm {
					got := lm[i]
					if got.Key() != want.Key() || got.Ref != want.Ref {
						t.Errorf("dis message %q (%v) vs %q (%v)", got.Key(), got.Ref, want.Key(), want.Ref)
					}
					sameLog(fmt.Sprintf("read log of %q", want.Key()), got.GenLog, want.GenLog)
				}
			}
		})
	}
}

// TestSuccessorsBeforeViolationAdmitted: an expansion admits each
// successor before it judges the next, so a successor found before a
// violating one is admitted, as in the sequential reference. Here the
// initial state's first successor is d's load; the second, e's store,
// lets the env reach its assert.
func TestSuccessorsBeforeViolationAdmitted(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y; domain 2; env w; dis d; dis e }
thread w { regs r; r = load y; assume r == 1; assert false }
thread d { regs a; a = load x }
thread e { store y 1 }
`)
	for name, run := range map[string]func(*simplified.Verifier) simplified.Result{
		"layered":    func(v *simplified.Verifier) simplified.Result { return v.VerifyContext(context.Background()) },
		"sequential": simplified.SequentialVerifyForTest,
	} {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := run(v)
		if !res.Unsafe || res.Violation == nil || !res.Violation.ByEnv || res.Stats.MacroStates != 2 {
			t.Errorf("%s: unsafe=%v by env=%v macro-states=%d, want an env violation after 2 macro-states",
				name, res.Unsafe, res.Violation != nil && res.Violation.ByEnv, res.Stats.MacroStates)
		}
	}
}
