package simplified_test

import (
	"context"
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
					if got, want := logKeys(pv.Log), logKeys(sv.Log); !slices.Equal(got, want) {
						t.Errorf("j=%d: violating read log %v vs %v", workers, got, want)
					}
					for i := range sv.DisLogs {
						if got, want := logKeys(pv.DisLogs[i]), logKeys(sv.DisLogs[i]); !slices.Equal(got, want) {
							t.Errorf("j=%d: dis %d read log %v vs %v", workers, i, got, want)
						}
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
							if got.Key() != want.Key() || got.GenDis != want.GenDis ||
								!slices.Equal(logKeys(got.GenLog), logKeys(want.GenLog)) {
								t.Errorf("j=%d: provenance of %q differs", workers, want.Key())
							}
						}
					}
				}
			}
		})
	}
}

func logKeys(l *simplified.ReadLog) []string {
	if l == nil {
		return nil
	}
	return l.Keys()
}
