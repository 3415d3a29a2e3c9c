package encode

import (
	"context"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// TestSkeletonCapReported: a tiny skeleton cap must be reported as
// non-exhaustive enumeration.
func TestSkeletonCapReported(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y; domain 3; env e; dis d1; dis d2 }
thread e { regs r; r = load x; store y (r + 1) }
thread d1 { store x 1; store x 2 }
thread d2 { regs q; q = load y; store x q }
`)
	ps, complete, err := collect(context.Background(), sys, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("cap of 2 skeletons reported as exhaustive")
	}
	if len(ps) == 0 {
		t.Error("no problems generated under the cap")
	}
}

// TestSkeletonsEnvOnlyEmpty: without dis threads, Skeletons yields exactly
// the empty run.
func TestSkeletonsEnvOnlyEmpty(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; env e }
thread e { store x 1 }
`)
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sks, complete, err := v.Skeletons(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !complete || len(sks) != 1 || len(sks[0].Steps) != 0 || sks[0].Unsafe {
		t.Fatalf("env-only skeletons = %+v (complete=%v)", sks, complete)
	}
}

// TestSkeletonStepsContent: a dis run's skeleton records stores with their
// slots and env reads with the exact message.
func TestSkeletonStepsContent(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x y; domain 3; env e; dis d }
thread e { regs r; r = load x; assume r == 1; store y 2 }
thread d { regs q; store x 1; q = load y; assume q == 2; assert false }
`)
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sks, complete, err := v.Skeletons(context.Background(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("incomplete")
	}
	foundUnsafe := false
	for _, sk := range sks {
		if !sk.Unsafe {
			continue
		}
		foundUnsafe = true
		var sawStore, sawEnvRead, sawAssert bool
		for _, st := range sk.Steps {
			if st.Kind == lang.OpStore && st.Stored != nil && st.TS >= 1 {
				sawStore = true
			}
			if st.Kind == lang.OpLoad && st.ReadEnv != nil && st.ReadEnv.Val == 2 {
				sawEnvRead = true
			}
			if st.Assert {
				sawAssert = true
			}
		}
		if !sawStore || !sawEnvRead || !sawAssert {
			t.Errorf("unsafe skeleton missing structure: store=%v envread=%v assert=%v",
				sawStore, sawEnvRead, sawAssert)
		}
	}
	if !foundUnsafe {
		t.Fatal("no unsafe skeleton found")
	}
}

// TestEncodeDisCASOnEnvMessage: the skeleton path where a dis CAS consumes
// an env message must survive the Datalog round trip.
func TestEncodeDisCASOnEnvMessage(t *testing.T) {
	checkAgainstVerifier(t, `
system s { vars x y; domain 3; env w; dis d }
thread w { store x 1 }
thread d {
  regs q
  cas x 1 2
  q = load x; assume q == 2
  assert false
}
`)
}
