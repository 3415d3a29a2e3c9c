package bench

import (
	"strings"
	"testing"
)

func TestRunCorpusReports(t *testing.T) {
	reps, err := RunCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Corpus()) {
		t.Fatalf("got %d reports for %d entries", len(reps), len(Corpus()))
	}
	for _, r := range reps {
		if r.Verdict != r.Entry.Want {
			t.Errorf("%s: verdict %v, want %v", r.Entry.Name, r.Verdict, r.Entry.Want)
		}
		if !r.Complete {
			t.Errorf("%s: incomplete", r.Entry.Name)
		}
	}
	tbl := CorpusTable(reps).String()
	if !strings.Contains(tbl, "prodcons-fig1") || !strings.Contains(tbl, "UNSAFE") {
		t.Errorf("table rendering broken:\n%s", tbl)
	}
}

func TestClassTable(t *testing.T) {
	tbl := ClassTable()
	threads := 0
	for _, e := range Corpus() {
		sys := e.System()
		threads += len(sys.Dis)
		if sys.Env != nil {
			threads++
		}
	}
	if len(tbl.Rows) != threads {
		t.Fatalf("got %d rows for %d corpus threads", len(tbl.Rows), threads)
	}
	s := tbl.String()
	for _, want := range []string{"prodcons-fig1", "(nocas, acyc)", "decidable"} {
		if !strings.Contains(s, want) {
			t.Errorf("class table missing %q:\n%s", want, s)
		}
	}
	// Every row must carry a parenthesised (cas?, cyc?) signature.
	for _, row := range tbl.Rows {
		if !strings.Contains(row[3], "(") || !strings.Contains(row[3], ")") {
			t.Errorf("row %v: malformed signature %q", row, row[3])
		}
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1()
	s := tbl.String()
	if strings.Contains(s, "BUG") || strings.Contains(s, "error") {
		t.Fatalf("Table 1 reports problems:\n%s", s)
	}
	for _, want := range []string{"PSPACE", "undecidable", "rejected by verifier"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
	// The PSPACE rows must show verifier/QBF agreement (printed as
	// verdict=X==QBF=X with equal values).
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "verdict=true") && !strings.Contains(line, "QBF=true") {
			t.Errorf("verdict/QBF mismatch: %s", line)
		}
		if strings.Contains(line, "verdict=false") && !strings.Contains(line, "QBF=false") {
			t.Errorf("verdict/QBF mismatch: %s", line)
		}
	}
}

func TestFig3Series(t *testing.T) {
	rows, err := Fig3(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Unsafe {
			t.Errorf("z=%d should be unsafe", r.Z)
		}
		if r.CostBound < int64(r.Z) {
			t.Errorf("z=%d: cost bound %d below z", r.Z, r.CostBound)
		}
	}
	// The env-message count should grow with z (more values chained).
	if rows[0].EnvMsgs >= rows[len(rows)-1].EnvMsgs {
		t.Errorf("env msgs not growing: %d .. %d", rows[0].EnvMsgs, rows[len(rows)-1].EnvMsgs)
	}
	if s := Fig3Table(rows).String(); !strings.Contains(s, "Figure 3") {
		t.Error("fig3 table broken")
	}
}

func TestFig4Render(t *testing.T) {
	s, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "goal") || !strings.Contains(s, "reads") {
		t.Errorf("fig4 rendering missing structure:\n%s", s)
	}
}

func TestFig5CostMatchesZ(t *testing.T) {
	rows, err := Fig5(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CostBound != int64(r.Z) {
			t.Errorf("z=%d: cost = %d, want z", r.Z, r.CostBound)
		}
	}
	if s := Fig5Table(rows).String(); !strings.Contains(s, "cost(msg#)") {
		t.Error("fig5 table broken")
	}
}

func TestCacheExperiment(t *testing.T) {
	rows, err := CacheExperiment()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MinCache <= 0 {
			t.Errorf("%s: no finite min cache found", r.Name)
		}
		if r.MinCache > r.Q0Squared {
			t.Errorf("%s: min cache %d exceeds the Q0² bound %d", r.Name, r.MinCache, r.Q0Squared)
		}
		if !r.CompactOK {
			t.Errorf("%s: compacted graph violates Lemma 4.5 bounds", r.Name)
		}
	}
	if s := CacheTable(rows).String(); !strings.Contains(s, "min cache") {
		t.Error("cache table broken")
	}
}

func TestThreadBoundExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("concrete sweeps skipped in -short mode")
	}
	rows, err := ThreadBoundExperiment(6)
	if err != nil {
		t.Fatal(err)
	}
	// Every unsafe entry with a known minimum has a row, those that need no
	// env thread included, and its concrete minimum is the annotated one.
	var want []Entry
	for _, e := range Corpus() {
		if e.Want == Unsafe && e.MinEnv >= 0 {
			want = append(want, e)
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d: one per unsafe entry with a known minimum", len(rows), len(want))
	}
	for i, r := range rows {
		if e := want[i]; r.Name != e.Name || r.ActualMin != e.MinEnv {
			t.Errorf("row %d: %s with concrete minimum %d, want %s with %d",
				i, r.Name, r.ActualMin, e.Name, e.MinEnv)
			continue
		}
		// §4.3: the cost is a sound over-approximation.
		if r.CostBound < int64(r.ActualMin) {
			t.Errorf("%s: cost bound %d below actual minimum %d", r.Name, r.CostBound, r.ActualMin)
		}
	}
	if s := ThreadTable(rows).String(); !strings.Contains(s, "cost(G)") {
		t.Error("thread table broken")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FixpointVerdict != r.DatalogVerdict {
			t.Errorf("%s: fixpoint %v vs datalog %v", r.Name, r.FixpointVerdict, r.DatalogVerdict)
		}
		if r.Skeletons < 1 {
			t.Errorf("%s: no skeletons", r.Name)
		}
	}
	if s := AblationTable(rows).String(); !strings.Contains(s, "t_fix") {
		t.Error("ablation table broken")
	}
}

func TestMinEnvConcreteHelper(t *testing.T) {
	e, _ := ByName("prodcons-fig1")
	n, err := MinEnvConcrete(e.System(), 3, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("min env = %d, want 1", n)
	}
	safeE, _ := ByName("mp-litmus")
	n, err = MinEnvConcrete(safeE.System(), 2, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != -1 {
		t.Errorf("safe entry reported min env %d", n)
	}
}
