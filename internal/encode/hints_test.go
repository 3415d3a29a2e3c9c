package encode

import (
	"context"
	"testing"

	"paramra/internal/absint"
	"paramra/internal/lang"
)

// hintSystems mixes safe and unsafe, env-only and env+dis shapes with
// guarded code where the abstract value sets genuinely narrow registers.
var hintSystems = []struct {
	name string
	src  string
}{
	{"prodcons", `
system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }
`},
	{"guarded-safe", `
system gs { vars x y; domain 4; env w; dis c }
thread w { regs r; r = load y; assume r == 3; store x 1 }
thread c { regs s; s = load x; assume s == 1; assert false }
`},
	{"env-only-unsafe", `
system s { vars x y; domain 3; env w }
thread w {
  regs r
  choice { store x 1 } or {
    r = load x; assume r == 1
    store y 2
  } or {
    r = load y; assume r == 2
    assert false
  }
}
`},
}

// TestHintsPreserveVerdict: the hint-restricted grounding must agree with
// the unrestricted one on every instance, while never emitting more rules.
func TestHintsPreserveVerdict(t *testing.T) {
	for _, tc := range hintSystems {
		t.Run(tc.name, func(t *testing.T) {
			sys := lang.MustParseSystem(tc.src)
			plain, complete, err := All(context.Background(), sys, 50_000, nil)
			if err != nil || !complete {
				t.Fatalf("plain encode: %v (complete=%v)", err, complete)
			}
			hints := absint.Analyze(sys).EnvFacts()
			if hints == nil {
				t.Fatal("system has an env program but no env facts")
			}
			hinted, complete, err := All(context.Background(), sys, 50_000, hints)
			if err != nil || !complete {
				t.Fatalf("hinted encode: %v (complete=%v)", err, complete)
			}
			if got, want := anyHolds(hinted), anyHolds(plain); got != want {
				t.Fatalf("hinted verdict %v != plain verdict %v", got, want)
			}
			if p, h := countRules(plain), countRules(hinted); h > p {
				t.Errorf("hints grew the encoding: %d rules -> %d", p, h)
			} else {
				t.Logf("rules: %d plain, %d hinted", p, h)
			}
		})
	}
}

// TestHintsShrinkGuardedGrounding: on a system whose env store sits behind
// an equality guard, the hint must strictly reduce the rule count (the
// stored expression's register is pinned to one value instead of Dom).
func TestHintsShrinkGuardedGrounding(t *testing.T) {
	src := `
system gs { vars x y; domain 6; env w; dis c }
thread w { regs r; r = load y; assume r == 1; store x r }
thread c { regs s; store y 1; s = load x; assume s == 1; assert false }
`
	sys := lang.MustParseSystem(src)
	plain, _, err := All(context.Background(), sys, 50_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	hinted, _, err := All(context.Background(), sys, 50_000, absint.Analyze(sys).EnvFacts())
	if err != nil {
		t.Fatal(err)
	}
	p, h := countRules(plain), countRules(hinted)
	if h >= p {
		t.Fatalf("guarded store not shrunk: %d rules plain, %d hinted", p, h)
	}
	if got, want := anyHolds(hinted), anyHolds(plain); got != want {
		t.Fatalf("hinted verdict %v != plain verdict %v", got, want)
	}
}

func countRules(ps []*Problem) int {
	n := 0
	for _, p := range ps {
		for _, r := range p.Prog.Rules {
			if !r.IsFact() {
				n++
			}
		}
	}
	return n
}
