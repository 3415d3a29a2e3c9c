package ra

import (
	"context"
	"strings"
	"testing"

	"paramra/internal/lang"
)

func deadlocks(t *testing.T, src string, nEnv int) DeadlockReport {
	t.Helper()
	sys := lang.MustParseSystem(src)
	inst, err := NewInstance(sys, nEnv)
	if err != nil {
		t.Fatal(err)
	}
	rep := inst.FindDeadlocksContext(context.Background(), Limits{MaxStates: 500_000})
	if !rep.Complete {
		t.Fatal("deadlock analysis incomplete")
	}
	return rep
}

// TestBarrierWithoutReleaseDeadlocks: workers waiting on a `go` flag that
// nobody sets are stuck forever.
func TestBarrierWithoutReleaseDeadlocks(t *testing.T) {
	rep := deadlocks(t, `
system stuck { vars arrived go; domain 2; dis worker }
thread worker {
  regs g
  store arrived 1
  g = load go; assume g == 1
}
`, 0)
	if rep.Deadlocks == 0 {
		t.Fatal("missing deadlock: worker waits on go forever")
	}
	if rep.Example == "" || len(rep.StuckThreads) != 1 || rep.StuckThreads[0] != "worker" {
		t.Errorf("example/stuck threads wrong: %q %v", rep.Example, rep.StuckThreads)
	}
}

// TestBarrierWithReleaseMixed: with the releaser present, runs in which the
// worker reads go=1 terminate; but the load-then-assume encoding of a wait
// loop is one-shot — a run that loads the stale 0 is stuck at the assume.
// Both sink kinds must be reported.
func TestBarrierWithReleaseMixed(t *testing.T) {
	rep := deadlocks(t, `
system ok { vars arrived go; domain 2; dis worker; dis releaser }
thread worker {
  regs g
  store arrived 1
  g = load go; assume g == 1
}
thread releaser {
  store go 1
}
`, 0)
	if rep.Terminal == 0 {
		t.Fatal("no terminal states found (successful runs missing)")
	}
	if rep.Deadlocks == 0 {
		t.Fatal("stale-read runs should be stuck at the assume")
	}
}

// TestRetryLoopNeverDeadlocks: the genuine wait loop (while-based retry)
// always has an enabled reload transition, so no deadlock exists.
func TestRetryLoopNeverDeadlocks(t *testing.T) {
	rep := deadlocks(t, `
system loopok { vars go; domain 2; dis worker; dis releaser }
thread worker {
  regs g
  while g != 1 { g = load go }
}
thread releaser { store go 1 }
`, 0)
	if rep.Deadlocks != 0 {
		t.Fatalf("retry loop reported stuck: %+v", rep)
	}
	if rep.Terminal == 0 {
		t.Fatal("no terminal states found")
	}
}

// TestDeadlockCountsTerminalSeparately: straight-line programs only produce
// terminal sinks.
func TestDeadlockCountsTerminalSeparately(t *testing.T) {
	rep := deadlocks(t, `
system fin { vars x; domain 3; dis a; dis b }
thread a { store x 1 }
thread b { store x 2 }
`, 0)
	if rep.Deadlocks != 0 {
		t.Errorf("deadlocks = %d", rep.Deadlocks)
	}
	if rep.Terminal == 0 {
		t.Error("expected terminal states")
	}
}

// TestDeadlockMutexHalf: a CAS loser with no retry path blocks forever.
func TestDeadlockMutexHalf(t *testing.T) {
	rep := deadlocks(t, `
system casblock { vars l; domain 2; dis t1; dis t2 }
thread t1 { cas l 0 1 }
thread t2 { cas l 0 1 }
`, 0)
	if rep.Deadlocks == 0 {
		t.Fatal("the losing CAS should be stuck")
	}
	if !strings.Contains(rep.Example, "thread") {
		t.Errorf("example rendering: %q", rep.Example)
	}
}

// TestDeadlockEnvReplicasStuckTogether: env replicas that all wait block in
// every instance size.
func TestDeadlockEnvReplicasStuckTogether(t *testing.T) {
	src := `
system w { vars go; domain 2; env waiter }
thread waiter { regs g; g = load go; assume g == 1 }
`
	for n := 1; n <= 2; n++ {
		rep := deadlocks(t, src, n)
		if rep.Deadlocks == 0 {
			t.Errorf("n=%d: waiters not reported stuck", n)
		}
	}
}
