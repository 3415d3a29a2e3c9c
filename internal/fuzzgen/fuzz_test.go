package fuzzgen

import (
	"context"
	"testing"
	"time"

	"paramra/internal/lang"
)

// fuzzCheck bounds per-input oracle work so the fuzzing engine gets a high
// exec rate; the rabench campaign uses larger caps for depth.
func fuzzCheck() CheckOptions {
	return CheckOptions{
		MaxMacroStates: 400,
		MaxStates:      2000,
		MaxSkeletons:   200,
	}
}

// FuzzPrintParseRoundTrip drives the generator from fuzz-chosen seeds and
// checks that every generated system survives print -> parse -> print
// exactly. This is the target that caught the unparenthesized-cas-operand
// printer bug (see the lang corpus).
func FuzzPrintParseRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		for i := byte(0); i < 6; i++ {
			f.Add(seed, i)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, profIdx byte) {
		sys := Generate(seed, ProfileForIndex(profIdx))
		src := lang.Print(sys)
		back, err := lang.ParseSystem(src)
		if err != nil {
			t.Fatalf("generated system does not re-parse: %v\n%s", err, src)
		}
		if got := lang.Print(back); got != src {
			t.Fatalf("print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", src, got)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-parsed system invalid: %v", err)
		}
	})
}

// FuzzDifferentialVerify generates a system per fuzz input and requires all
// verification backends to agree. Any failure here is a real soundness bug
// in one of the backends (or in the oracle's model of their contracts).
func FuzzDifferentialVerify(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for i := byte(0); i < 6; i++ {
			f.Add(seed, i)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, profIdx byte) {
		sys := Generate(seed, ProfileForIndex(profIdx))
		// The fuzz worker's hang detector kills executions around 10s; a
		// deadline keeps pathological inputs fast, and the oracle excludes
		// cancelled runs from comparison, so a timeout is never a verdict.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		rep := Check(ctx, sys, fuzzCheck())
		if !rep.Agree() {
			for _, v := range rep.Verdicts {
				t.Logf("verdict %s", v)
			}
			for _, d := range rep.Disagreements {
				t.Errorf("disagreement %s", d)
			}
			t.Fatalf("backends disagree on seed=%d profile=%s:\n%s",
				seed, ProfileForIndex(profIdx).Name, lang.Print(sys))
		}
	})
}
