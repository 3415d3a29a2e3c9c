package simplified_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/datalog"
	"paramra/internal/encode"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// TestSkeletonsHonourCancellation: the enumeration checks its context once
// per expanded macro-state, so an already-cancelled context stops it before
// any of peterson-ra's 63 skeletons is produced.
func TestSkeletonsHonourCancellation(t *testing.T) {
	e, ok := bench.ByName("peterson-ra")
	if !ok {
		t.Fatal("corpus entry peterson-ra missing")
	}
	v, err := simplified.New(e.System(), simplified.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sks, complete, err := v.Skeletons(ctx, 0)
	if !errors.Is(err, context.Canceled) || len(sks) != 0 || complete {
		t.Fatalf("Skeletons under a cancelled context = %d skeletons, complete %v, err %v; want none, false, context.Canceled",
			len(sks), complete, err)
	}
}

// TestSkeletonShared pins Shared, the number of leading steps a skeleton
// shares with the one before it in the walk: 0 for the first, never more
// than the steps the two have in common, and less than the skeleton's own
// steps, since no walk path is a prefix of another. On the corpus, where
// no state has two moves that render as the same step, it is exactly the
// length of the common prefix; a generated system may have two such moves
// (two edges with one operation), whose paths part where their steps still
// read alike.
func TestSkeletonShared(t *testing.T) {
	check := func(t *testing.T, sys *lang.System, maxPaths int, exact bool) {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			return
		}
		sks, _, err := v.Skeletons(context.Background(), maxPaths)
		if err != nil {
			t.Fatal(err)
		}
		for i, sk := range sks {
			common := 0
			if i > 0 {
				prev := sks[i-1].Steps
				for common < len(prev) && common < len(sk.Steps) && reflect.DeepEqual(prev[common], sk.Steps[common]) {
					common++
				}
			}
			if sk.Shared > common || exact && sk.Shared != common || i > 0 && sk.Shared >= len(sk.Steps) {
				t.Fatalf("skeleton %d of %d steps: Shared %d, common prefix %d", i, len(sk.Steps), sk.Shared, common)
			}
		}
	}
	for _, e := range bench.Corpus() {
		t.Run(e.Name, func(t *testing.T) { check(t, e.System(), 100_000, true) })
	}
	for seed := int64(0); seed < 300; seed++ {
		check(t, fuzzgen.Generate(seed, fuzzgen.DefaultProfile()), 3000, false)
	}
}

// TestSkeletonsOnLeafSlots checks the relabeling of every skeleton the walk
// emits, on the corpus and 300 fuzzgen systems of each profile. Replaying
// its stored messages, each variable's dis messages must sit on canonical
// slots: the init message at 0, a sealed message one slot above the
// message before it, any other message two above. A dis read must name the
// init message or one an earlier step stored, a load with the value it
// read, a CAS sealed right above it. Every timestamp of a view must name
// the init message or one stored by an earlier step (or by the step
// itself, on its own variable), and lie in the encoder's universe.
func TestSkeletonsOnLeafSlots(t *testing.T) {
	check := func(t *testing.T, name string, sys *lang.System, maxPaths int) {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil {
			return
		}
		top := slices.Max(append(v.Budget(), 0))
		n := 0
		_, err = v.EachSkeleton(context.Background(), maxPaths, func(sk simplified.Skeleton) bool {
			if err := leafSlotsError(sys, top, sk.Steps); err != nil {
				t.Fatalf("%s skeleton %d: %v", name, n, err)
			}
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range bench.Corpus() {
		check(t, e.Name, e.System(), 0)
	}
	for _, prof := range fuzzgen.ProfileNames() {
		p, _ := fuzzgen.ProfileByName(prof)
		for seed := int64(0); seed < 300; seed++ {
			check(t, fmt.Sprintf("%s seed %d", prof, seed), fuzzgen.Generate(seed, p), 3000)
		}
	}
}

// leafSlotsError reports what breaks TestSkeletonsOnLeafSlots's rules in
// one skeleton's steps, whose slots run up to top.
func leafSlotsError(sys *lang.System, top int, steps []simplified.SkeletonStep) error {
	type msg struct {
		step   int // the step that stored it, -1 for the init message
		val    lang.Val
		sealed bool
	}
	at := make([]map[int]msg, len(sys.Vars))
	for x := range at {
		at[x] = map[int]msg{0: {step: -1, val: sys.Init}}
	}
	for i, s := range steps {
		m := s.Stored
		if m == nil {
			continue
		}
		if m.Var != s.Var || m.TS != simplified.Int(s.TS) || m.View[m.Var] != m.TS {
			return fmt.Errorf("step %d stores %v at slot %d", i, m, s.TS)
		}
		if _, dup := at[m.Var][s.TS]; dup {
			return fmt.Errorf("step %d stores on x%d's occupied slot %d", i, m.Var, s.TS)
		}
		at[m.Var][s.TS] = msg{step: i, val: m.Val, sealed: m.Sealed}
	}
	for x, msgs := range at {
		var slots []int
		for ts := range msgs {
			slots = append(slots, ts)
		}
		slices.Sort(slots)
		for k := 1; k < len(slots); k++ {
			want := slots[k-1] + 2
			if msgs[slots[k]].sealed {
				want--
			}
			if slots[k] != want || slots[k] > top {
				return fmt.Errorf("x%d's messages sit on slots %v, not canonical ones within %d", x, slots, top)
			}
		}
	}
	// names reports whether t, a timestamp on y in step i, names the init
	// message or one stored before step i (or by it, when own).
	names := func(i int, y int, t simplified.ATime, own bool) bool {
		m, ok := at[y][t.Floor()]
		return ok && (m.step < i || own && m.step == i)
	}
	for i, s := range steps {
		if s.ReadDisTS >= 0 {
			m, ok := at[s.Var][s.ReadDisTS]
			switch {
			case !ok || m.step >= i:
				return fmt.Errorf("step %d reads x%d's slot %d, which holds no earlier message", i, s.Var, s.ReadDisTS)
			case s.Kind == lang.OpLoad && m.val != s.Val:
				return fmt.Errorf("step %d loads %d from x%d's slot %d, which holds %d", i, s.Val, s.Var, s.ReadDisTS, m.val)
			case s.Kind == lang.OpCASOp && (s.TS != s.ReadDisTS+1 || !s.Stored.Sealed):
				return fmt.Errorf("step %d's CAS reads x%d's slot %d and stores at %d", i, s.Var, s.ReadDisTS, s.TS)
			}
		}
		for _, m := range []*simplified.AMsg{s.ReadEnv, s.Stored} {
			if m == nil {
				continue
			}
			for y, t := range m.View {
				if !names(i, y, t, m == s.Stored && y == int(m.Var)) {
					return fmt.Errorf("step %d's message %v: view entry %s on x%d names no message", i, m, t, y)
				}
			}
		}
	}
	return nil
}

// TestCanonicalWalkMatchesIntegerWalk compares the Datalog verdicts of the
// two walks behind makeP's guess: EachSkeleton, on order classes and
// relabeled to its leaves, and the integer walk it replaced
// (EachIntegerSkeletonForTest), on every corpus entry with no cap and on
// 300 fuzzgen systems of each profile at the fuzz oracle's cap of 3,000
// skeletons. A verdict is decided when an instance derives unsafe() or the
// walk runs to its end; the corpus must be decided by both walks, and
// where both decide they must agree. The fixpoint and the Datalog backend
// share canonicalize, so this keeps a check that does not.
func TestCanonicalWalkMatchesIntegerWalk(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, name string, sys *lang.System, maxPaths int, mustDecide bool) {
		v, err := simplified.New(sys, simplified.Options{})
		if err != nil || sys.Env == nil {
			return
		}
		enc, err := encode.New(sys, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, canonDone := datalogVerdict(t, enc, func(y func(simplified.Skeleton) bool) (bool, error) {
			return v.EachSkeleton(ctx, maxPaths, y)
		})
		integer, integerDone := datalogVerdict(t, enc, func(y func(simplified.Skeleton) bool) (bool, error) {
			return simplified.EachIntegerSkeletonForTest(ctx, v, maxPaths, y)
		})
		if mustDecide && !(canonDone && integerDone) || canonDone && integerDone && canon != integer {
			t.Errorf("%s: canonical walk unsafe=%v (decided %v), integer walk unsafe=%v (decided %v)",
				name, canon, canonDone, integer, integerDone)
		}
	}
	for _, e := range bench.Corpus() {
		check(t, e.Name, e.System(), 0, true)
	}
	for _, prof := range fuzzgen.ProfileNames() {
		p, _ := fuzzgen.ProfileByName(prof)
		for seed := int64(0); seed < 300; seed++ {
			check(t, fmt.Sprintf("%s seed %d", prof, seed), fuzzgen.Generate(seed, p), 3000, false)
		}
	}
}

// datalogVerdict evaluates the query instances of walk's skeletons as the
// Datalog backend does: each step continues its parent step's model, from
// depth Shared on, and the first instance that derives unsafe() ends the
// walk. decided reports that one did, or that the walk ran to its end.
func datalogVerdict(t *testing.T, enc *encode.Encoder, walk encode.Walk) (unsafe, decided bool) {
	t.Helper()
	ctx := context.Background()
	model, _, err := datalog.Eval(ctx, enc.Prefix(), nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*datalog.DB{model}
	complete, err := enc.EachOf(walk, func(p *encode.Problem) bool {
		chain = chain[:p.Shared+1]
		for k := p.Shared; k < len(p.Steps) && !unsafe; k++ {
			db, hit, _, err := datalog.Continue(ctx, chain[k], nil, p.Steps[k], &p.Goal, nil)
			if err != nil {
				t.Fatal(err)
			}
			chain, unsafe = append(chain, db), hit
		}
		return !unsafe
	})
	if err != nil {
		t.Fatal(err)
	}
	return unsafe, unsafe || complete
}
