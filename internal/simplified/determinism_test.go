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

// TestParallelMatchesSequentialCorpus is the determinism contract of the
// layered parallel engine: for every corpus entry and every worker count,
// VerifyContext must agree with the sequential reference search on the
// verdict, completeness, every statistic, and the violation's read logs and
// dis message provenance (the inputs of the §4.3 env-thread bound).
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, e := range bench.Corpus() {
		t.Run(e.Name, func(t *testing.T) {
			seqV, err := simplified.New(e.System(), simplified.Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			seq := simplified.SequentialVerifyForTest(seqV)

			for _, workers := range []int{1, 2, 8} {
				parV, err := simplified.New(e.System(), simplified.Options{Workers: workers})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				par := parV.VerifyContext(context.Background())

				if par.Unsafe != seq.Unsafe || par.Complete != seq.Complete {
					t.Fatalf("j=%d: verdict (%v,%v) vs sequential (%v,%v)",
						workers, par.Unsafe, par.Complete, seq.Unsafe, seq.Complete)
				}
				if par.Stats != seq.Stats {
					t.Errorf("j=%d: stats %+v vs sequential %+v", workers, par.Stats, seq.Stats)
				}
				if (par.Violation == nil) != (seq.Violation == nil) {
					t.Fatalf("j=%d: violation presence differs", workers)
				}
				if par.Violation != nil {
					pv, sv := par.Violation, seq.Violation
					if pv.ByEnv != sv.ByEnv || pv.DisIndex != sv.DisIndex {
						t.Errorf("j=%d: violation source (%v,%d) vs (%v,%d)",
							workers, pv.ByEnv, pv.DisIndex, sv.ByEnv, sv.DisIndex)
					}
					// A reference pins a dis message only with the memory
					// compared below, and an env message not at all, so the
					// logs are also compared as the keys they resolve to:
					// the witness paramra returns.
					pr, sr := pv.Resolver(), sv.Resolver()
					sameLog := func(what string, p, s *simplified.ReadLog) {
						t.Helper()
						if got, want := p.Refs(), s.Refs(); !slices.Equal(got, want) {
							t.Errorf("j=%d: %s %v vs %v", workers, what, got, want)
						}
						got, perr := pr.Keys(p)
						want, serr := sr.Keys(s)
						if perr != nil || serr != nil {
							t.Errorf("j=%d: %s does not resolve: %v / %v", workers, what, perr, serr)
						} else if !slices.Equal(got, want) {
							t.Errorf("j=%d: %s keys %v vs %v", workers, what, got, want)
						}
					}
					sameLog("violating read log", pv.Log, sv.Log)
					if len(pv.DisLogs) != len(sv.DisLogs) {
						t.Fatalf("j=%d: %d dis read logs vs %d", workers, len(pv.DisLogs), len(sv.DisLogs))
					}
					for i := range sv.DisLogs {
						sameLog(fmt.Sprintf("dis %d read log", i), pv.DisLogs[i], sv.DisLogs[i])
					}
					// Every dis message carries its provenance: the same
					// messages, with the same generating thread and read log.
					for x := 0; x < sv.Mem.NumVars(); x++ {
						pm, sm := pv.Mem.VarMsgs(lang.VarID(x)), sv.Mem.VarMsgs(lang.VarID(x))
						if len(pm) != len(sm) {
							t.Errorf("j=%d: %d dis messages on var %d vs %d", workers, len(pm), x, len(sm))
							continue
						}
						for i, want := range sm {
							got := pm[i]
							if got.Key() != want.Key() || got.Ref != want.Ref {
								t.Errorf("j=%d: dis message %q (%v) vs %q (%v)",
									workers, got.Key(), got.Ref, want.Key(), want.Ref)
							}
							sameLog(fmt.Sprintf("read log of %q", want.Key()), got.GenLog, want.GenLog)
						}
					}
				}
			}
		})
	}
}
