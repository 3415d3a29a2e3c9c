package bench

import (
	"context"
	"fmt"
	"time"

	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

// CorpusReport is the result of running one corpus entry through the
// parameterized verifier.
type CorpusReport struct {
	Entry    Entry
	Verdict  Verdict
	Complete bool
	Stats    simplified.Stats
	Elapsed  time.Duration
}

// RunEntry verifies a single corpus entry.
func RunEntry(e Entry) (CorpusReport, error) {
	v, err := simplified.New(e.System(), simplified.Options{
		Trace:   instr.Trace,
		Metrics: instr.Metrics,
	})
	if err != nil {
		return CorpusReport{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	start := time.Now()
	res := v.VerifyContext(context.TODO())
	rep := CorpusReport{
		Entry:    e,
		Complete: res.Unsafe || res.Complete,
		Stats:    res.Stats,
		Elapsed:  time.Since(start),
		Verdict:  Safe,
	}
	if res.Unsafe {
		rep.Verdict = Unsafe
	}
	return rep, nil
}

// RunCorpus verifies every corpus entry (E11, the §1 classification table).
func RunCorpus() ([]CorpusReport, error) {
	var out []CorpusReport
	for _, e := range Corpus() {
		rep, err := RunEntry(e)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// CorpusTable formats corpus reports as the benchmark table.
func CorpusTable(reps []CorpusReport) *Table {
	t := &Table{
		Title:   "Benchmark corpus (classification of §1 + litmus tests)",
		Columns: []string{"benchmark", "class", "verdict", "expected", "macro-states", "env-cfgs", "env-msgs", "time"},
	}
	for _, r := range reps {
		t.AddRow(r.Entry.Name, r.Entry.Class, r.Verdict, r.Entry.Want,
			r.Stats.MacroStates, r.Stats.EnvConfigs, r.Stats.EnvMsgs,
			r.Elapsed.Round(time.Microsecond))
	}
	return t
}

// ClassTable builds the per-thread classification table of the corpus: one
// row per thread with its computed lang.Classify signature (acyc/nocas),
// next to the paper-notation class the entry documents and whether the
// system falls in the decidable fragment.
func ClassTable() *Table {
	t := &Table{
		Title:   "Corpus thread-classification signatures (lang.Classify)",
		Columns: []string{"benchmark", "role", "thread", "signature", "decidable"},
	}
	for _, e := range Corpus() {
		sys := e.System()
		dec := lang.Classify(sys).Decidable()
		name := e.Name
		row := func(role string, p *lang.Program) {
			t.AddRow(name, role, p.Name, lang.ClassifyProgram(p).String(), dec)
			name = "" // only the first thread row carries the entry name
		}
		if sys.Env != nil {
			row("env", sys.Env)
		}
		for _, d := range sys.Dis {
			row("dis", d)
		}
	}
	return t
}

// MinEnvConcrete searches for the smallest number of env threads whose
// concrete instance is unsafe, up to maxN (E9 helper). Returns -1 when none
// is found.
func MinEnvConcrete(sys *lang.System, maxN, maxStates int) (int, error) {
	for n := 0; n <= maxN; n++ {
		inst, err := ra.NewInstance(sys, n)
		if err != nil {
			return -1, err
		}
		res := inst.ExploreContext(context.TODO(), ra.Limits{MaxStates: maxStates, Symmetry: true})
		if res.Unsafe {
			return n, nil
		}
		if !res.Complete {
			return -1, fmt.Errorf("exploration incomplete at n=%d", n)
		}
	}
	return -1, nil
}
