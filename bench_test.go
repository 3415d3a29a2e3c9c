// Benchmarks regenerating the paper's tables and figures; one benchmark per
// experiment in the EXPERIMENTS.md index. Run with
//
//	go test -bench=. -benchmem
package paramra_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/cm"
	"paramra/internal/datalog"
	"paramra/internal/depgraph"
	"paramra/internal/encode"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/sc"
	"paramra/internal/serve"
	"paramra/internal/simplified"
	"paramra/internal/tqbf"
)

func mustSys(b *testing.B, src string) *lang.System {
	b.Helper()
	sys, err := lang.ParseSystem(src)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func verifyB(b *testing.B, sys *lang.System, wantUnsafe bool) simplified.Result {
	b.Helper()
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res := v.VerifyContext(context.Background())
	if res.Unsafe != wantUnsafe {
		b.Fatalf("verdict %v, want %v", res.Unsafe, wantUnsafe)
	}
	return res
}

// fig3Src builds the Figure 3 producer-consumer with consumer loop bound z.
func fig3Src(z int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
system fig3 { vars x y; domain %d; env producer; dis consumer }
thread producer { regs r s; r = load y; assume r == 1; s = load x; store x (s + 1) }
thread consumer {
  regs t
  store y 1
`, z+2)
	for i := 1; i <= z; i++ {
		fmt.Fprintf(&sb, "  t = load x; assume t == %d\n", i)
	}
	sb.WriteString("  assert false\n}\n")
	return sb.String()
}

// BenchmarkTable1PSPACECell measures the PSPACE cell of Table 1: deciding a
// TQBF reduction of quantifier depth 3 with the parameterized verifier.
func BenchmarkTable1PSPACECell(b *testing.B) {
	q := tqbf.Random(rand.New(rand.NewSource(1)), 1, 2)
	sys, err := tqbf.Reduce(q)
	if err != nil {
		b.Fatal(err)
	}
	want := q.Eval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyB(b, sys, want)
	}
}

// BenchmarkTable1UndecidableCell measures the bounded counter-machine
// fallback for the env(acyc)-with-CAS cell of Table 1 (Theorem 1.1).
func BenchmarkTable1UndecidableCell(b *testing.B) {
	m := &cm.Machine{States: []cm.Instr{
		{Kind: cm.OpInc, Counter: 0, Next: 1},
		{Kind: cm.OpInc, Counter: 0, Next: 2},
		{Kind: cm.OpHalt},
	}}
	sys, err := cm.Reduce(m, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := ra.NewInstance(sys, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 2_000_000}); !res.Unsafe {
			b.Fatal("halting machine not detected")
		}
	}
}

// BenchmarkFig1ConcreteRA measures concrete RA exploration of the Figure 1
// producer-consumer instance (one producer, one consumer).
func BenchmarkFig1ConcreteRA(b *testing.B) {
	sys := mustSys(b, fig3Src(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := ra.NewInstance(sys, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 200_000}); !res.Unsafe {
			b.Fatal("expected unsafe")
		}
	}
}

// BenchmarkFig3Simplified measures the Figure 3 parameterized verification
// with loop bound 4 (the consumer loops more often than any fixed thread
// count would allow without the abstraction).
func BenchmarkFig3Simplified(b *testing.B) {
	sys := mustSys(b, fig3Src(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyB(b, sys, true)
	}
}

// BenchmarkFig4DependencyGraph measures goal-directed verification plus
// dependency-graph reconstruction for the Figure 4 snippet.
func BenchmarkFig4DependencyGraph(b *testing.B) {
	sys := mustSys(b, `
system fig4 { vars x y; domain 3; env worker }
thread worker {
  regs r
  choice { store x 1 } or { r = load x; assume r == 1; store y 2 }
}
`)
	yv, _ := sys.VarByName("y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := simplified.New(sys, simplified.Options{Goal: &simplified.Goal{Var: yv, Val: 2}})
		if err != nil {
			b.Fatal(err)
		}
		res := v.VerifyContext(context.Background())
		if !res.Unsafe {
			b.Fatal("goal not generated")
		}
		if _, err := depgraph.FromViolation(sys, res.Violation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Cost measures the Figure 5 cost computation (z = 4).
func BenchmarkFig5Cost(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5(4)
		if err != nil {
			b.Fatal(err)
		}
		if rows[3].CostBound != 4 {
			b.Fatalf("cost = %d", rows[3].CostBound)
		}
	}
}

// BenchmarkFig6TQBF measures the Theorem 5.1 pipeline: build the Figure 6
// reduction and verify, for a ∀∃∀ formula.
func BenchmarkFig6TQBF(b *testing.B) {
	q, err := tqbf.Parse("forall u0 exists e1 forall u1 : (~u0 | e1) & (u0 | ~e1)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := tqbf.Reduce(q)
		if err != nil {
			b.Fatal(err)
		}
		verifyB(b, sys, true)
	}
}

// BenchmarkTheorem34Differential measures one round of the soundness/
// completeness cross-check: parameterized verdict vs concrete instances.
func BenchmarkTheorem34Differential(b *testing.B) {
	e, _ := bench.ByName("prodcons-fig1")
	sys := e.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyB(b, sys, true)
		inst, err := ra.NewInstance(sys, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 200_000}); !res.Unsafe {
			b.Fatal("concrete disagrees")
		}
	}
}

// BenchmarkLemma42Translation measures the Cache→linear Datalog
// translation plus evaluation of the result.
func BenchmarkLemma42Translation(b *testing.B) {
	p := datalog.NewProgram()
	s := p.MustPred("s", 1)
	for i := 0; i <= 5; i++ {
		p.Intern(fmt.Sprintf("c%d", i))
	}
	if err := p.Fact(s, p.Intern("c0")); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.MustRule(datalog.Rule{
			Head: datalog.Atom{Pred: s, Terms: []datalog.Term{datalog.C(p.Intern(fmt.Sprintf("c%d", i+1)))}},
			Body: []datalog.Atom{{Pred: s, Terms: []datalog.Term{datalog.C(p.Intern(fmt.Sprintf("c%d", i)))}}},
		})
	}
	goal := datalog.GroundAtom{Pred: s, Args: []datalog.Const{p.Intern("c5")}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp, lg, err := datalog.TranslateCache(p, goal, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !datalog.Query(lp, lg) {
			b.Fatal("translation lost derivability")
		}
	}
}

// BenchmarkLemma44CacheSize measures the minimal-cache search on a makeP
// instance.
func BenchmarkLemma44CacheSize(b *testing.B) {
	sys := mustSys(b, `
system s { vars x f; domain 2; env w }
thread w { regs r; r = load x; assume r == 0; store f 1 }
`)
	p, err := encode.EnvOnly(sys)
	if err != nil {
		b.Fatal(err)
	}
	prog := p.Program()
	core, edb := datalog.SplitEDB(prog, p.EDBPreds)
	db := datalog.EvalSemiNaive(prog)
	var goal datalog.GroundAtom
	found := false
	for _, g := range db.All() {
		if prog.Preds[g.Pred].Name == "emp" {
			goal, found = g, true
			break
		}
	}
	if !found {
		b.Fatal("no emp atom")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := datalog.MinCacheSizeEDB(core, goal, 16, edb); k <= 0 {
			b.Fatalf("min cache = %d", k)
		}
	}
}

// BenchmarkSec43ThreadBound measures the §4.3 pipeline: cost bound from the
// dependency graph plus concrete minimal-thread search.
func BenchmarkSec43ThreadBound(b *testing.B) {
	e, _ := bench.ByName("env-chain-escalation")
	sys := e.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := verifyB(b, sys, true)
		g, err := depgraph.FromViolation(sys, res.Violation)
		if err != nil {
			b.Fatal(err)
		}
		if g.CostGoal() < 4 {
			b.Fatalf("cost = %d", g.CostGoal())
		}
		n, err := bench.MinEnvConcrete(sys, 5, 500_000)
		if err != nil || n != 4 {
			b.Fatalf("min env = %d (%v)", n, err)
		}
	}
}

// BenchmarkCorpusVerify measures parameterized verification across the full
// benchmark corpus (E11), with one sub-benchmark per entry.
func BenchmarkCorpusVerify(b *testing.B) {
	for _, e := range bench.Corpus() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			sys := e.System()
			want := e.Want == bench.Unsafe
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verifyB(b, sys, want)
			}
		})
	}
}

// BenchmarkAblationNoAbstraction compares against the no-abstraction
// baseline: concrete exploration with a fixed thread count.
func BenchmarkAblationNoAbstraction(b *testing.B) {
	e, _ := bench.ByName("env-chain-escalation")
	sys := e.System()
	b.Run("simplified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verifyB(b, sys, true)
		}
	})
	b.Run("concrete-n4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, err := ra.NewInstance(sys, 4)
			if err != nil {
				b.Fatal(err)
			}
			if res := inst.ExploreContext(context.Background(), ra.Limits{MaxStates: 2_000_000}); !res.Unsafe {
				b.Fatal("expected unsafe")
			}
		}
	})
}

// BenchmarkAblationDatalogVsFixpoint compares the two decision backends.
func BenchmarkAblationDatalogVsFixpoint(b *testing.B) {
	e, _ := bench.ByName("prodcons-fig1")
	sys := e.System()
	b.Run("fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verifyB(b, sys, true)
		}
	})
	b.Run("datalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := paramra.Verify(context.Background(), sys, paramra.Options{Datalog: true})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Unsafe {
				b.Fatal("datalog backend disagrees")
			}
		}
	})
}

// BenchmarkRobustness measures one SC-vs-RA robustness comparison (E13).
func BenchmarkRobustness(b *testing.B) {
	e, _ := bench.ByName("sb-litmus")
	sys := e.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob, err := sc.CompareRobustness(sys, 0, ra.Limits{MaxStates: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if !rob.WeakBehaviour() {
			b.Fatal("SB should be non-robust")
		}
	}
}

// BenchmarkScalingDomain measures one point of the E14 domain sweep.
func BenchmarkScalingDomain(b *testing.B) {
	sys := mustSys(b, `
system chain { vars x; domain 16; env inc; dis w }
thread inc { regs r; r = load x; store x (r + 1) }
thread w { regs s; s = load x; assume s == 15; assert false }
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyB(b, sys, true)
	}
}

// BenchmarkPrepassReplay measures the prepass on the corpus barrier entry at
// the replay cap raserved passes (MaxStates 2,000,000). Its concrete replay
// visits every state of the n=0..4 instances and decides nothing, so the
// figure is the cost of the concrete explorer's successor relation;
// scripts/bench-allocs.sh gates its allocs/op.
func BenchmarkPrepassReplay(b *testing.B) {
	e, _ := bench.ByName("barrier")
	sys := e.System()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := paramra.Prepass(ctx, sys, paramra.Options{MaxStates: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if out.Verdict != paramra.PrepassInconclusive || out.ReplayStates == 0 {
			b.Fatalf("barrier prepass: %v after %d replay states, want an inconclusive replay",
				out.Verdict, out.ReplayStates)
		}
	}
}

// BenchmarkServedCorpus measures the served path: one op verifies all 24
// corpus entries with the options raserved gives a request that names none
// (prepass on, replay capped at 30,000 states per instance), and fails on
// a wrong or incomplete verdict.
// scripts/bench-allocs.sh gates its allocs/op, so a return to running the
// replay to its full cap before the fixpoint, or to charging a replay
// round's budget per instance, shows there.
func BenchmarkServedCorpus(b *testing.B) {
	opts, err := serve.Config{}.Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchCorpus(b, opts)
}

// BenchmarkServedCorpusDatalog measures radatalog's default on the corpus:
// the Datalog backend with the prepass, where the schedule alternates
// replay rounds and Datalog rounds under growing budgets.
// scripts/bench-allocs.sh gates its allocs/op, so a return to running the
// replay to its full cap before the Datalog backend, or to evaluating each
// query instance from the prefix's model instead of each step of the walk
// once, shows there.
func BenchmarkServedCorpusDatalog(b *testing.B) {
	benchCorpus(b, paramra.Options{Datalog: true, Prepass: true})
}

// benchCorpus verifies all 24 corpus entries per op under opts, and fails
// on a wrong or incomplete verdict.
func benchCorpus(b *testing.B, opts paramra.Options) {
	corpus := bench.Corpus()
	systems := make([]*paramra.System, len(corpus))
	for i, e := range corpus {
		systems[i] = e.System()
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range corpus {
			res, err := paramra.Verify(ctx, systems[j], opts)
			if err != nil {
				b.Fatalf("%s: %v", e.Name, err)
			}
			if !res.Complete || res.Unsafe != (e.Want == bench.Unsafe) {
				b.Fatalf("%s: unsafe=%v complete=%v by %s, want %s",
					e.Name, res.Unsafe, res.Complete, res.DecidedBy, e.Want)
			}
		}
	}
}

// BenchmarkSkeletons measures the dis-run skeleton enumeration that makeP
// (§4.1) runs in place of the paper's guess, on lamport-2-ra's 15,966
// skeletons; scripts/bench-allocs.sh gates its allocs/op.
func BenchmarkSkeletons(b *testing.B) {
	e, _ := bench.ByName("lamport-2-ra")
	v, err := simplified.New(e.System(), simplified.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sks, complete, err := v.Skeletons(ctx, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		if !complete || len(sks) != 15_966 {
			b.Fatalf("lamport-2-ra: %d skeletons (complete %v), want all 15,966", len(sks), complete)
		}
	}
}

// BenchmarkDatalogVerify measures the makeP → Datalog backend end to end on
// the corpus ticketlock entry. It is SAFE with 72 skeletons, so every step
// of the walk is evaluated; scripts/bench-allocs.sh gates its allocs/op,
// which grow with every step a return to evaluating each instance from the
// prefix's model would evaluate again.
func BenchmarkDatalogVerify(b *testing.B) {
	e, _ := bench.ByName("ticketlock")
	sys := e.System()
	ctx := context.Background()
	opts := paramra.Options{Datalog: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Unsafe || !res.Complete || res.Stats.Skeletons != 72 {
			b.Fatalf("ticketlock: unsafe=%v complete=%v skeletons=%d, want a complete SAFE run over 72",
				res.Unsafe, res.Complete, res.Stats.Skeletons)
		}
	}
}

// BenchmarkDatalogVerifyUnsafe measures the Datalog backend's early exit
// on the corpus peterson-ra entry. It is UNSAFE, and the
// skeleton walk's 2nd of its 26,136 skeletons derives unsafe(), so the
// walk stops there; scripts/bench-allocs.sh gates its allocs/op, which
// grow with every skeleton a return to building all instances first
// would enumerate.
func BenchmarkDatalogVerifyUnsafe(b *testing.B) {
	e, _ := bench.ByName("peterson-ra")
	sys := e.System()
	ctx := context.Background()
	opts := paramra.Options{Datalog: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Unsafe || !res.Complete || res.Stats.Skeletons != 2 {
			b.Fatalf("peterson-ra: unsafe=%v complete=%v skeletons=%d, want UNSAFE at the 2nd skeleton",
				res.Unsafe, res.Complete, res.Stats.Skeletons)
		}
	}
}

// BenchmarkSaturateTQBF measures env saturation, the closure §5 reduces
// TQBF to: paramra.Verify with the prepass off on the
// depth-2 TQBF reduction of seed 7. The reduction has no dis thread, so the
// run is its initial macro-state's saturation; it must complete with the
// formula's truth value as its verdict. scripts/bench-allocs.sh gates its
// allocs/op, which grow with every configuration a naive pass re-derives.
func BenchmarkSaturateTQBF(b *testing.B) {
	q := tqbf.Random(rand.New(rand.NewSource(7)), 2, 2)
	sys, err := tqbf.Reduce(q)
	if err != nil {
		b.Fatal(err)
	}
	want := q.Eval()
	ctx := context.Background()
	opts := paramra.Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete || res.Unsafe != want {
			b.Fatalf("tqbf depth 2 seed 7: unsafe=%v complete=%v, want a complete run with unsafe=%v",
				res.Unsafe, res.Complete, want)
		}
	}
}

// BenchmarkParser measures the concrete-syntax frontend.
func BenchmarkParser(b *testing.B) {
	src := fig3Src(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paramra.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogTransitiveClosure measures the raw semi-naive engine.
func BenchmarkDatalogTransitiveClosure(b *testing.B) {
	p := datalog.NewProgram()
	edge := p.MustPred("edge", 2)
	path := p.MustPred("path", 2)
	const n = 60
	for i := 0; i < n; i++ {
		p.Intern(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n-1; i++ {
		if err := p.Fact(edge, datalog.Const(i), datalog.Const(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	p.MustRule(datalog.Rule{
		Head:    datalog.Atom{Pred: path, Terms: []datalog.Term{datalog.V(0), datalog.V(1)}},
		Body:    []datalog.Atom{{Pred: edge, Terms: []datalog.Term{datalog.V(0), datalog.V(1)}}},
		NumVars: 2,
	})
	p.MustRule(datalog.Rule{
		Head: datalog.Atom{Pred: path, Terms: []datalog.Term{datalog.V(0), datalog.V(2)}},
		Body: []datalog.Atom{
			{Pred: path, Terms: []datalog.Term{datalog.V(0), datalog.V(1)}},
			{Pred: edge, Terms: []datalog.Term{datalog.V(1), datalog.V(2)}},
		},
		NumVars: 3,
	})
	want := n * (n - 1) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := datalog.EvalSemiNaive(p)
		if got := len(db.ByPred(path)); got != want {
			b.Fatalf("paths = %d, want %d", got, want)
		}
	}
}

// BenchmarkSlice measures the verdict-preserving slicer behind the CLIs'
// -slice flag and ravet, over the corpus plus 48 generated systems drawn
// from the profiles served traffic uses (default, small and nocas, env
// loops off).
// One op slices all 72 systems; scripts/bench-allocs.sh gates its allocs/op.
func BenchmarkSlice(b *testing.B) {
	var systems []*lang.System
	for _, e := range bench.Corpus() {
		systems = append(systems, e.System())
	}
	for i, name := range []string{"default", "small", "nocas"} {
		prof, _ := fuzzgen.ProfileByName(name)
		prof.EnvLoops = false
		for seed := int64(1); seed <= 16; seed++ {
			systems = append(systems, fuzzgen.Generate(seed*3+int64(i), prof))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			paramra.Slice(sys)
		}
	}
}
