package paramra_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"paramra"
)

// TestOptionsNormalization pins the contract that negative numeric options
// behave exactly like their zero (default) values, identically across all
// entry points and backends: a caller computing caps (e.g. remaining budget
// arithmetic going negative) must not flip a backend into a different regime.
func TestOptionsNormalization(t *testing.T) {
	sys, err := paramra.Parse(prodcons)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Each variant must yield the same verdicts as the baseline value 0.
	for _, ms := range []int{0, -1} {
		opts := paramra.Options{MaxStates: ms, MaxMacroStates: ms, MaxSkeletons: ms}

		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			t.Fatalf("Verify(max=%d): %v", ms, err)
		}
		if !res.Unsafe || !res.Complete {
			t.Errorf("Verify(max=%d) = unsafe=%v complete=%v, want unsafe complete", ms, res.Unsafe, res.Complete)
		}

		dl, err := paramra.Verify(ctx, sys, paramra.Options{Datalog: true, MaxSkeletons: ms})
		if err != nil {
			t.Fatalf("Verify/datalog(max=%d): %v", ms, err)
		}
		if !dl.Unsafe || !dl.Complete {
			t.Errorf("Verify/datalog(max=%d) = unsafe=%v complete=%v, want unsafe complete", ms, dl.Unsafe, dl.Complete)
		}

		inst, err := paramra.VerifyInstance(ctx, sys, 1, opts)
		if err != nil {
			t.Fatalf("VerifyInstance(max=%d): %v", ms, err)
		}
		if !inst.Unsafe {
			t.Errorf("VerifyInstance(max=%d) not unsafe", ms)
		}

		n, _, err := paramra.ConfirmViolation(ctx, sys, res, 4, opts)
		if err != nil {
			t.Fatalf("ConfirmViolation(max=%d): %v", ms, err)
		}
		if n != 1 {
			t.Errorf("ConfirmViolation(max=%d) = %d env threads, want 1", ms, n)
		}

		dr, err := paramra.FindDeadlocks(ctx, sys, 1, opts)
		if err != nil {
			t.Fatalf("FindDeadlocks(max=%d): %v", ms, err)
		}
		if !dr.Complete {
			t.Errorf("FindDeadlocks(max=%d) incomplete", ms)
		}
	}

	// MaxStates: 1 genuinely truncates — proves the clamp maps -1 to
	// "unlimited", not to "tiny cap".
	inst, err := paramra.VerifyInstance(ctx, sys, 1, paramra.Options{MaxStates: 1})
	if err != nil {
		t.Fatalf("VerifyInstance(MaxStates=1): %v", err)
	}
	if inst.Complete {
		t.Error("VerifyInstance(MaxStates=1) reported a complete search of a >1-state space")
	}
}

// TestOptionsValidate pins the strict counterpart of the clamp: Validate
// names every out-of-range field with a typed *OptionError, accepts every
// in-range combination, and agrees with normalized() about which fields are
// range-limited (a knob Validate rejects must be one the entry points would
// have clamped, and vice versa).
func TestOptionsValidate(t *testing.T) {
	if err := (paramra.Options{}).Validate(); err != nil {
		t.Errorf("zero Options invalid: %v", err)
	}
	ok := paramra.Options{MaxStates: 10, MaxMacroStates: 1, MaxSkeletons: 5, UnrollDis: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid Options rejected: %v", err)
	}

	cases := []struct {
		field string
		opts  paramra.Options
	}{
		{"MaxMacroStates", paramra.Options{MaxMacroStates: -1}},
		{"MaxStates", paramra.Options{MaxStates: -7}},
		{"MaxSkeletons", paramra.Options{MaxSkeletons: -2}},
		{"UnrollDis", paramra.Options{UnrollDis: -3}},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if err == nil {
			t.Errorf("%s: negative value accepted", c.field)
			continue
		}
		var oe *paramra.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %T is not a *OptionError", c.field, err)
			continue
		}
		if oe.Field != c.field {
			t.Errorf("Field = %q, want %q", oe.Field, c.field)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("message %q does not name the field %q", err.Error(), c.field)
		}
	}

	// Several violations are all reported, each findable by field name.
	err := paramra.Options{MaxStates: -1, UnrollDis: -1}.Validate()
	if err == nil {
		t.Fatal("two violations accepted")
	}
	for _, f := range []string{"MaxStates", "UnrollDis"} {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("joined error %q missing field %s", err.Error(), f)
		}
	}
}
