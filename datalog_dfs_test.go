package paramra_test

import (
	"context"
	"fmt"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/datalog"
	"paramra/internal/encode"
	"paramra/internal/fuzzgen"
)

// TestDatalogDFSMatchesInstances checks the Datalog backend, which
// evaluates each step of the skeleton walk once as a continuation of its
// parent step's model, in storage reused across the walk, against a
// separate evaluation of every query instance (paramra.DatalogInstances),
// on the corpus and 300 fuzzgen systems with the prepass off.
//
// Each instance is evaluated alone from the prefix's model twice: its whole
// rule list in one datalog.Continue, and its steps one continuation after
// another in fresh databases. The two must give the same answer, and
// models of the same size when the goal is not derived. Verify must then
// give the verdict of the first instance that derives unsafe() and stop
// there, and its Skeletons, DatalogFacts, DatalogRules and DatalogAtoms
// must count every instance up to it: its whole program each, and the
// size of its step-by-step model.
func TestDatalogDFSMatchesInstances(t *testing.T) {
	for _, e := range bench.Corpus() {
		checkDatalogDFS(t, e.Name, e.System(), 0)
	}
	for seed := int64(0); seed < 300; seed++ {
		checkDatalogDFS(t, fmt.Sprintf("fuzz seed %d", seed), fuzzgen.Generate(seed, fuzzgen.DefaultProfile()), 3000)
	}
}

func checkDatalogDFS(t *testing.T, name string, sys *paramra.System, maxSkeletons int) {
	t.Helper()
	ctx := context.Background()
	opts := paramra.Options{Datalog: true, MaxSkeletons: maxSkeletons}
	res, verr := paramra.Verify(ctx, sys, opts)

	var want paramra.Stats
	unsafeAt := -1
	var model *datalog.DB
	var prefixFacts, prefixRules int
	var evalErr error
	complete, err := paramra.DatalogInstances(ctx, sys, opts, func(p *encode.Problem) bool {
		if model == nil {
			if model, _, evalErr = datalog.Eval(ctx, p.Prefix, nil); evalErr != nil {
				return false
			}
			prefixFacts, prefixRules = countFactsRules(p.Prefix.Rules)
		}
		own := p.Rules()
		whole, hit, _, err := datalog.Continue(ctx, model, nil, own, &p.Goal, nil)
		if err != nil {
			evalErr = err
			return false
		}
		db, stepHit := model, false
		for _, st := range p.Steps {
			if db, stepHit, _, err = datalog.Continue(ctx, db, nil, st, &p.Goal, nil); err != nil {
				evalErr = err
				return false
			}
			if stepHit {
				break
			}
		}
		if hit != stepHit || !hit && whole.Size() != db.Size() {
			t.Fatalf("%s instance %d: whole program answers %v with %d atoms, step by step %v with %d",
				name, want.Skeletons, hit, whole.Size(), stepHit, db.Size())
		}
		facts, rules := countFactsRules(own)
		want.DatalogFacts += prefixFacts + facts
		want.DatalogRules += prefixRules + rules
		want.DatalogAtoms += db.Size()
		if hit {
			unsafeAt = want.Skeletons
		}
		want.Skeletons++
		return !hit
	})
	if err == nil {
		err = evalErr
	}
	if (verr != nil) != (err != nil) {
		t.Fatalf("%s: Verify error %v, instances error %v", name, verr, err)
	}
	if err != nil {
		return
	}
	got := paramra.Stats{Skeletons: res.Stats.Skeletons, DatalogFacts: res.Stats.DatalogFacts,
		DatalogRules: res.Stats.DatalogRules, DatalogAtoms: res.Stats.DatalogAtoms}
	gotAt := -1
	if res.Unsafe {
		gotAt = res.Stats.Skeletons - 1
	}
	if gotAt != unsafeAt || res.Complete != (unsafeAt >= 0 || complete) || got != want {
		t.Errorf("%s: Verify UNSAFE at instance %d (complete %v) with %+v; instances UNSAFE at %d (complete %v) with %+v",
			name, gotAt, res.Complete, got, unsafeAt, unsafeAt >= 0 || complete, want)
	}
}

// countFactsRules splits rules into facts and proper rules.
func countFactsRules(rules []datalog.Rule) (facts, proper int) {
	for _, r := range rules {
		if r.IsFact() {
			facts++
		} else {
			proper++
		}
	}
	return facts, proper
}
