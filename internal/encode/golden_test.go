package encode_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paramra/internal/analysis"
	"paramra/internal/bench"
	"paramra/internal/datalog"
	"paramra/internal/encode"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

var update = flag.Bool("update", false, "rewrite testdata/skeletons.golden from the current code")

const (
	// corpusCap is the skeleton cap of the corpus enumerations: the Datalog
	// backend's default.
	corpusCap = 100_000
	// fuzzCap is the fuzz oracle's default cap; some seeds hit it, which
	// pins the cut-off path too.
	fuzzCap = 3000
	// progTextMax bounds the entries whose makeP program text is pinned:
	// building the 26k instances of peterson-ra alone takes seconds.
	progTextMax = 1000
	fuzzSeeds   = 200
)

// TestSkeletonsGolden pins the dis-run skeletons (every step's fields) and
// the makeP program text of every corpus entry, and the skeletons of 200
// fuzzgen systems, to testdata/skeletons.golden. Refresh with
// `go test ./internal/encode -run TestSkeletonsGolden -update`.
func TestSkeletonsGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range bench.Corpus() {
		b.WriteString(goldenLine(t, e.Name, e.System(), corpusCap, true))
	}
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		sys := fuzzgen.Generate(seed, fuzzgen.DefaultProfile())
		b.WriteString(goldenLine(t, fmt.Sprintf("fuzz-%d", seed), sys, fuzzCap, false))
	}
	path := filepath.Join("testdata", "skeletons.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// goldenLine renders one system's pinned digests.
func goldenLine(t *testing.T, name string, sys *lang.System, maxSkeletons int, withProg bool) string {
	t.Helper()
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		return fmt.Sprintf("%s error=%q\n", name, err)
	}
	sks, complete, err := v.Skeletons(context.Background(), maxSkeletons)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	line := fmt.Sprintf("%s skeletons=%d complete=%v steps=%s", name, len(sks), complete, stepDigest(sks))
	if withProg && len(sks) <= progTextMax {
		h := sha256.New()
		err := eachInstance(context.Background(), sys, maxSkeletons, nil, func(p *encode.Problem) bool {
			prog := p.Program()
			fmt.Fprintf(h, "%s?- %s\n", prog.String(), prog.GroundString(p.Goal))
			return true
		})
		if err != nil {
			line += fmt.Sprintf(" prog-error=%q", err)
		} else {
			line += " prog=" + hex.EncodeToString(h.Sum(nil))
		}
	}
	return line + "\n"
}

// eachInstance hands yield every query instance an Encoder emits for sys.
func eachInstance(ctx context.Context, sys *lang.System, maxSkeletons int, hints encode.Hints, yield func(*encode.Problem) bool) error {
	e, err := encode.New(sys, hints)
	if err != nil {
		return err
	}
	_, err = e.Each(ctx, maxSkeletons, yield)
	return err
}

// stepDigest hashes every skeleton's steps, field by field.
func stepDigest(sks []simplified.Skeleton) string {
	h := sha256.New()
	for _, sk := range sks {
		fmt.Fprintf(h, "skeleton unsafe=%v\n", sk.Unsafe)
		for _, s := range sk.Steps {
			fmt.Fprintf(h, "%d %d %d %d %d ", s.Dis, s.Kind, s.Var, s.Val, s.TS)
			writeMsg(h, s.ReadEnv)
			fmt.Fprintf(h, " %d ", s.ReadDisTS)
			writeMsg(h, s.Stored)
			fmt.Fprintf(h, " %v\n", s.Assert)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeMsg renders a message from its exported fields only: the cached key
// is an implementation detail that may or may not be filled in.
func writeMsg(h hash.Hash, m *simplified.AMsg) {
	if m == nil {
		fmt.Fprint(h, "-")
		return
	}
	fmt.Fprintf(h, "(%d,%s,%d,%s,%v)", m.Var, m.TS, m.Val, m.View, m.Env)
}

// TestContinuationMatchesWholeProgram checks the evaluation every caller
// uses — the prefix's model once per system, then each instance as a
// continuation of it — against datalog.Query on the instance's
// materialized program, on every instance of the corpus entries with at
// most progTextMax skeletons: the answers must be equal, and where the goal
// is not derived, so must the atom sets.
func TestContinuationMatchesWholeProgram(t *testing.T) {
	ctx := context.Background()
	for _, e := range bench.Corpus() {
		sys := e.System()
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			continue
		}
		if sks, _, err := v.Skeletons(ctx, progTextMax+1); err != nil || len(sks) > progTextMax {
			continue
		}
		var hints encode.Hints
		if ef := analysis.Analyze(sys).EnvFacts(); ef != nil {
			hints = ef
		}
		enc, err := encode.New(sys, hints)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		model, _, err := datalog.Eval(ctx, enc.Prefix(), nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		_, err = enc.Each(ctx, corpusCap, func(p *encode.Problem) bool {
			defer func() { i++ }()
			db, hit, _, err := datalog.Continue(ctx, model, nil, p.Rules(), &p.Goal, nil)
			if err != nil {
				t.Fatal(err)
			}
			prog := p.Program()
			if want := datalog.Query(prog, p.Goal); hit != want {
				t.Fatalf("%s instance %d: continuation answers %v, whole program %v", e.Name, i, hit, want)
			}
			if hit {
				return true
			}
			want := datalog.EvalSemiNaive(prog)
			if db.Size() != want.Size() {
				t.Fatalf("%s instance %d: continuation derives %d atoms, whole program %d", e.Name, i, db.Size(), want.Size())
			}
			for _, g := range want.All() {
				if !db.Has(g) {
					t.Fatalf("%s instance %d: continuation misses %s", e.Name, i, prog.GroundString(g))
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}

// TestSharedModelCancelled: evaluating the prefix's model under a cancelled
// context returns ctx's error and no model to continue from.
func TestSharedModelCancelled(t *testing.T) {
	var sys *lang.System
	for _, e := range bench.Corpus() {
		if e.Name == "seqlock" {
			sys = e.System()
		}
	}
	enc, err := encode.New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	model, _, err := datalog.Eval(ctx, enc.Prefix(), nil)
	if !errors.Is(err, context.Canceled) || model != nil {
		t.Fatalf("cancelled shared-model evaluation: model %v, error %v; want nil, %v", model, err, context.Canceled)
	}
}
