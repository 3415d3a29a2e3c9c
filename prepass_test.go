package paramra

import (
	"context"
	"strings"
	"testing"

	"paramra/internal/simplified"
)

const prepassSafeSrc = `
system vsafe { vars f; domain 4; env w; dis c }
thread w { store f 1 }
thread c { regs a; a = load f; assume a == 2; assert false }
`

const prepassUnsafeSrc = `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`

// prepassReplaySrc is prepassUnsafeSrc with a second dis thread whose two
// stores give the fixpoint more macro-states to admit before the violation
// than the replay needs concrete states to confirm it: on prodcons itself
// the fixpoint decides first under the prepass schedule.
const prepassReplaySrc = `
system prodcons { vars x y z0 z1 z2; domain 4; env producer; dis consumer; dis noise }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
thread noise { store z0 1; store z1 1 }
`

func TestVerifyPrepassSafe(t *testing.T) {
	sys, err := Parse(prepassSafeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, Options{Prepass: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsafe || !res.Complete {
		t.Fatalf("unsafe=%v complete=%v, want SAFE complete", res.Unsafe, res.Complete)
	}
	if res.DecidedBy != "prepass" {
		t.Fatalf("DecidedBy = %q, want prepass (%s)", res.DecidedBy, res.PrepassReason)
	}
}

func TestVerifyPrepassUnsafe(t *testing.T) {
	sys, err := Parse(prepassReplaySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, Options{Prepass: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unsafe || !res.Complete {
		t.Fatalf("unsafe=%v complete=%v, want UNSAFE complete", res.Unsafe, res.Complete)
	}
	if res.DecidedBy != "prepass" {
		t.Fatalf("DecidedBy = %q, want prepass (%s)", res.DecidedBy, res.PrepassReason)
	}
	if res.EnvThreadBound != 1 {
		t.Fatalf("EnvThreadBound = %d, want 1", res.EnvThreadBound)
	}
	if len(res.Witness) == 0 {
		t.Fatal("prepass UNSAFE must carry the confirming interleaving")
	}
}

func TestVerifyPrepassFallsThrough(t *testing.T) {
	// mp is SAFE by ordering only: the prepass cannot decide it, and the
	// fixpoint backend must still produce the verdict.
	sys, err := Parse(`
system mp { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, Options{Prepass: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsafe {
		t.Fatal("mp is SAFE")
	}
	if res.DecidedBy != "fixpoint" {
		t.Fatalf("DecidedBy = %q, want fixpoint", res.DecidedBy)
	}
	if res.PrepassReason == "" {
		t.Fatal("inconclusive prepass must leave its reason in the result")
	}
	if res.Stats.MacroStates == 0 {
		t.Fatal("fallthrough must actually run the search")
	}
}

func TestPrepassStandalone(t *testing.T) {
	sys, err := Parse(prepassSafeSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != PrepassSafe {
		t.Fatalf("verdict = %s (%s)", out.Verdict, out.Reason)
	}
	// Goal mode: value 3 is unwritable, value 1 is written.
	out, err = Prepass(context.Background(), sys, Options{Goal: &Goal{Var: "f", Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != PrepassSafe {
		t.Fatalf("goal 3: verdict = %s (%s)", out.Verdict, out.Reason)
	}
	out, err = Prepass(context.Background(), sys, Options{Goal: &Goal{Var: "f", Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != PrepassInconclusive {
		t.Fatalf("goal 1: verdict = %s, want INCONCLUSIVE", out.Verdict)
	}
	if !strings.Contains(out.Reason, "goal") {
		t.Fatalf("reason should mention the goal: %q", out.Reason)
	}
}

func TestVerifyPrepassAgreesWithFixpoint(t *testing.T) {
	// Same systems, prepass off: verdicts must match.
	for _, src := range []string{prepassSafeSrc, prepassUnsafeSrc} {
		sys, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := Verify(context.Background(), sys, Options{Prepass: true})
		if err != nil {
			t.Fatal(err)
		}
		fix, err := Verify(context.Background(), sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pre.Unsafe != fix.Unsafe {
			t.Fatalf("%s: prepass says unsafe=%v, fixpoint says unsafe=%v",
				sys.Name, pre.Unsafe, fix.Unsafe)
		}
	}
}

// TestFixpointResultGraphErrorIsAnError: a violation whose read logs name a
// message its own configuration lacks has no witness or dependency graph,
// and that is a verifier bug to report, not a graph to leave out. The
// dangling reference sits once in the violating log (the witness) and once
// in a dis message's log (the graph alone).
func TestFixpointResultGraphErrorIsAnError(t *testing.T) {
	sys, err := Parse(prepassUnsafeSrc)
	if err != nil {
		t.Fatal(err)
	}
	dangling := &simplified.ReadLog{Ref: simplified.DisRef(0, 7)}
	inWitness := &simplified.Violation{
		Log: dangling,
		Mem: simplified.NewDisMem(len(sys.Vars), 0),
		Env: simplified.NewEnvSet(len(sys.Vars)),
	}
	inGraph := &simplified.Violation{
		Mem: simplified.NewDisMem(len(sys.Vars), 0),
		Env: simplified.NewEnvSet(len(sys.Vars)),
	}
	view := simplified.NewAView(len(sys.Vars))
	view[0] = simplified.Int(2)
	inGraph.Mem.Put(simplified.AMsg{Var: 0, TS: simplified.Int(2), Val: 1, View: view,
		Ref: simplified.DisRef(0, 1), GenLog: dangling})
	for name, viol := range map[string]*simplified.Violation{"witness": inWitness, "graph": inGraph} {
		res, err := fixpointResult(Result{EnvThreadBound: -1}, sys,
			simplified.Result{Unsafe: true, Complete: true, Violation: viol})
		if err == nil {
			t.Fatalf("%s: got a nil error (graph %v), want the dangling reference reported", name, res.Graph)
		}
		if !strings.Contains(err.Error(), "dis(0@7)") {
			t.Errorf("%s: error %q does not name the dangling reference", name, err)
		}
	}
}
